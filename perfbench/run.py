#!/usr/bin/env python3
"""psanim benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a psanim checkout. Builds psanim and the psanim_perf
program from source (into $CARGO_TARGET_DIR, default .bench_build), runs
workload W with seed N for S seconds of untraced passes plus one traced
pass, checks the outputs, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Exits non-zero when the outputs are wrong or the environment is not the
one the benchmark measures.

    python3 perfbench/run.py --record --workload W --seeds 1-32

re-records the reference outputs of W for those seeds in
perfbench/expected.json (only after the run checks out on its own).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# The load shape: at most this many busy threads (two fiber workers per
# sim; four one-worker farm launches).
CORES = 4
# A run must end within 180 s; the build before the first one may take
# up to 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def guard_environment():
    """Refuse to measure a runtime state other than the one recorded."""
    for var in ("PSANIM_DISABLE_BUFFER_POOL", "PSANIM_EXEC_MODE"):
        if os.environ.get(var):
            fail("%s is set; the benchmark measures the default runtime "
                 "(pooled buffers, fibers) — unset it" % var, 2)
    cores = len(os.sched_getaffinity(0))
    if cores < CORES:
        fail("%d cores available; the load shape needs %d" % (cores, CORES), 2)
    return cores


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    log = target / "perfbench-build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(CORES),
                  "--target", "psanim_perf"])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                tail = log.read_text().splitlines()[-25:]
                fail("build failed:\n" + "\n".join(tail))
    tmp = target / "tmp"
    tmp.mkdir(exist_ok=True)
    return bdir / "psanim_perf", tmp


def run_perf(exe, tmp, workload, seed, seconds, min_passes=3):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp-dir", str(tmp),
           "--min-passes", str(min_passes)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %s timed out" % (workload, seed))
    if r.returncode != 0 or not r.stdout.strip():
        fail("psanim_perf exited %d: %s" % (r.returncode, r.stderr.strip()))
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    b = doc["build"]
    if not b["optimized"] or b["sanitized"] or \
            b["build_type"] not in ("Release", "RelWithDebInfo"):
        fail("build is %s%s; timings need an optimised, unsanitized build" % (
            b["build_type"], " (sanitized)" if b["sanitized"] else ""), 2)
    return doc


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload, seeds):
    exe, tmp = build()
    outputs = {}
    for seed in seeds:
        doc = run_perf(exe, tmp, workload, seed, 0, min_passes=1)
        _, _, problems = gate.check(doc, None)
        if problems:
            fail("seed %d does not check out: %s" % (seed, "; ".join(problems)))
        outputs[str(seed)] = doc["passes"][0]["fingerprint"]
        print("recorded %s seed %d" % (workload, seed), flush=True)
    # Several workloads may be recorded at once: merge under a lock.
    with open(tmp / "expected.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        expected = load_expected()
        mine = expected.setdefault("outputs", {}).setdefault(workload, {})
        mine.update(outputs)
        expected["outputs"][workload] = dict(
            sorted(mine.items(), key=lambda kv: int(kv[0])))
        EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def measure(args):
    cores = guard_environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe, tmp = build()
    doc = run_perf(exe, tmp, args.workload, args.seed, args.seconds)
    expected = load_expected()
    reference = expected.get("outputs", {}).get(args.workload, {}).get(
        str(args.seed))

    b = doc["build"]
    print("# %s seed %d | build %s, %s, nproc %d (affinity %d)" % (
        args.workload, args.seed, b["build_type"], b["compiler"], b["nproc"],
        cores))
    held_out = expected.get("held_out_seeds", {}).get(args.workload)
    print("# reference: %s; held-out seed for claims: %s" % (
        "recorded for this seed" if reference is not None else
        "none recorded for this seed (checked pass-to-pass, traced vs "
        "untraced, and the oracle)", held_out))
    w = doc["warmup"]
    print("# warm-up pass (excluded): wall %.4f s, cpu %.4f s" % (
        w["wall_s"], w["cpu_s"]))

    attempted, failed, problems = gate.check(doc, reference)
    metrics = {}
    try:
        e2e = gate.end_to_end(doc)
        for name, (med, q1, q3, n) in e2e.items():
            print("# %-24s median %-12s q1 %-12s q3 %-12s n=%d" % (
                name, fmt(med), fmt(q1), fmt(q3), n))
        if args.trace:
            layers = gate.per_layer(doc, e2e)
            cpu = doc["traced"]["cpu_s"]
            shares = ", ".join(
                "%s %.1f%%" % (k, 100.0 * layers[k] / cpu)
                for k in gate.ATTRIBUTED[args.workload] +
                ("host.unattributed_s",))
            print("# traced cpu_s %.4f = %s" % (cpu, shares))
            values, names = layers, spec["per_layer"]
        else:
            values = {k: v[0] for k, v in e2e.items()}
            names = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]} for m in names}
    except (gate.GateError, KeyError, TypeError) as e:
        problems.append("metrics: %s" % e)
    for p in problems:
        print("# problem: %s" % p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(failed, 1),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gate.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", help="record: seeds, e.g. 1-32,1009")
    args = ap.parse_args()
    if args.record:
        if not args.seeds:
            ap.error("--record needs --seeds")
        guard_environment()
        record(args.workload, parse_seeds(args.seeds))
        return 0
    if args.seed is None:
        ap.error("--seed is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
