"""The benchmark's checker: turns psanim_perf's raw document into metrics
and decides whether the run's outputs are correct.

Pure functions over plain dicts, so test_gate.py can feed it degenerate
documents. A check that cannot be made (no passes, no jobs, a percentile
without ten samples beyond it, no layer times) fails the run; it never
passes vacuously.
"""

import math
import statistics

SIMS = ("snow_fs_dlb", "fountain_is_dlb")
FARM = "farm_stream"
WORKLOADS = SIMS + (FARM,)

# Farm percentiles the benchmark reports, with the fingerprint key holding
# how many samples lie strictly beyond each.
PERCENTILES = ("wait_p50_s", "wait_p99_s", "interactive_wait_p95_s")
MIN_BEYOND = 10

# Layer times (seconds, disjoint) that add up to the attributed part of
# the traced pass's cpu_s. On the farm the jobs' own cost is estimated as a
# whole (psys, core and render run inside it), and what remains is the
# farm driver: farm.driver_s equals host.unattributed_s there.
ATTRIBUTED = {
    "snow_fs_dlb": ("psys.actions_s", "psys.create_s", "psys.store_snapshot_s",
                    "core.frame_vertex_s", "core.exchange_s", "render.splat_s"),
    "fountain_is_dlb": ("psys.actions_s", "psys.create_s",
                        "psys.store_snapshot_s", "core.frame_vertex_s",
                        "core.exchange_s", "render.splat_s"),
    FARM: ("farm.job_exec_est_s",),
}

# Probe rate (ns per particle) x exact count -> estimated busy seconds.
ESTIMATES = {
    "core.frame_vertex_s": ("core.frame_vertex_ns_per_particle",
                            "render.particles_rendered"),
    "core.exchange_s": ("core.exchange_codec_ns_per_particle", "core.crossers"),
    "render.splat_s": ("render.splat_ns_per_particle",
                       "render.particles_rendered"),
    "psys.store_snapshot_s": ("psys.store_snapshot_ns_per_particle",
                              "render.particles_rendered"),
}


class GateError(Exception):
    """A result the checker refuses to report."""


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if not values:
        raise GateError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _ok_passes(doc):
    return [p for p in doc.get("passes", []) if p.get("ok")]


def check(doc, reference):
    """Check a run's outputs. `reference` is the recorded fingerprint for
    the run's seed, or None when the seed has none. Returns (attempted,
    failed, problems); the run is correct iff problems is empty."""
    workload = doc.get("workload")
    if workload not in WORKLOADS:
        return 1, 1, ["unknown workload %r" % workload]
    passes = list(doc.get("passes", []))
    traced = doc.get("traced") or {}
    problems = []
    if not passes:
        problems.append("no untraced pass ran")
    ok = _ok_passes(doc)
    untraced = ok[0]["fingerprint"] if ok else None
    want = reference if reference is not None else untraced
    attempted = failed = 0
    for i, p in enumerate(passes + [traced]):
        is_traced = i == len(passes)
        name = "traced pass" if is_traced else "pass %d" % i
        ops = p.get("attempted") or 1
        attempted += ops
        bad = p.get("failed", 0)
        got = p.get("fingerprint")
        if not p.get("ok"):
            problems.append("%s threw: %s" % (name, p.get("error", "")))
            bad = ops
        elif is_traced and untraced is not None and got != untraced:
            problems.append("traced/untraced divergence: " +
                            _diff(untraced, got))
            bad = ops
        elif got != want:
            problems.append("%s output mismatch: %s" % (name, _diff(want, got)))
            bad = ops
        failed += bad
    oracle = traced.get("oracle") or {}
    if traced.get("ok") and not oracle.get("ok"):
        problems.append("oracle: %s" % oracle.get("detail", "missing"))
    if want is not None and workload == FARM:
        if not want.get("jobs_done"):
            problems.append("zero jobs drained")
        elif want.get("jobs_done") != want.get("jobs"):
            problems.append("drained %s of %s jobs" % (
                want.get("jobs_done"), want.get("jobs")))
        for key in PERCENTILES:
            beyond = want.get(key[:-len("_s")] + "_beyond", 0)
            if beyond < MIN_BEYOND:
                problems.append("%s has %d samples beyond it (< %d)" % (
                    key, beyond, MIN_BEYOND))
    if failed > 0 and not problems:
        problems.append("%d operations failed" % failed)
    return attempted, failed, problems


def _diff(want, got):
    if not isinstance(want, dict) or not isinstance(got, dict):
        return "%r != %r" % (want, got)
    keys = sorted(set(want) | set(got))
    return ", ".join("%s %r != %r" % (k, got.get(k), want.get(k))
                     for k in keys if want.get(k) != got.get(k))


def _positive(name, v):
    if v is None or not math.isfinite(v) or v <= 0:
        raise GateError("%s is %r; a run must measure a positive time" % (
            name, v))
    return v


def end_to_end(doc):
    """{name: (median, q1, q3, n)} over the run's untraced passes. Host
    times are CPU seconds: on a machine shared with other tenants the wall
    clock of the same run moved by up to 38% between runs, CPU time by up
    to 13%. wall_s is kept for the summary and as the per-layer
    host.wall_s; it is not an end-to-end metric."""
    passes = _ok_passes(doc)
    if not passes:
        raise GateError("no successful pass to measure")
    walls = [_positive("wall_s", p["wall_s"]) for p in passes]
    cpus = [_positive("cpu_s", p["cpu_s"]) for p in passes]
    updates = doc["traced"].get("particle_updates", 0)
    jobs = [p.get("jobs", 0) for p in passes]
    if not updates or not all(jobs):
        raise GateError("a pass completed no work")
    fp = passes[0]["fingerprint"]
    out = {}

    def put(name, values):
        q1, med, q3 = quartiles(values)
        out[name] = (med, q1, q3, len(values))

    put("cpu_s", cpus)
    put("particle_updates_per_cpu_s", [updates / c for c in cpus])
    put("jobs_per_cpu_s", [j / c for j, c in zip(jobs, cpus)])
    put("setup_s", [_positive("setup_s", s) for s in doc["setup_s"]])
    put("peak_rss_mb", [doc["peak_rss_mb"]])
    put("virtual_makespan_s", [fp["virtual_makespan_s"]])
    put("wall_s", walls)
    return out


def per_layer(doc, e2e):
    """{name: value} for every per-layer metric, with the derived ones
    (estimated busy times, residuals, overheads) filled in. `e2e` is
    end_to_end(doc)."""
    untraced_cpu_s = e2e["cpu_s"][0]
    traced = doc.get("traced") or {}
    raw = dict(traced.get("layers") or {})
    workload = doc.get("workload")
    attributed = ATTRIBUTED.get(workload, ())
    if not raw or not attributed:
        raise GateError("empty layer set: nothing to attribute cpu_s to")
    bad = sorted(k for k, v in raw.items()
                 if not isinstance(v, (int, float)) or not math.isfinite(v))
    if bad:
        raise GateError("layer values not measured: %s" % ", ".join(bad))
    cpu = traced["cpu_s"]
    for name, (rate, count) in ESTIMATES.items():
        raw[name] = raw[rate] * raw[count] * 1e-9
    fp = traced["fingerprint"]
    if workload == FARM:
        raw["farm.driver_s"] = cpu - raw["farm.job_exec_est_s"]
        for key in PERCENTILES:
            raw["farm." + key] = fp[key]
    else:
        raw["sim.distribution_overhead_s"] = \
            untraced_cpu_s - raw["sim.sequential_cpu_s"]
    missing = [k for k in attributed if k not in raw]
    if missing:
        raise GateError("attributed layers not measured: %s" % missing)
    raw["host.unattributed_s"] = cpu - sum(raw[k] for k in attributed)
    raw["obs.trace_overhead_s"] = cpu - untraced_cpu_s
    raw["host.wall_s"] = e2e["wall_s"][0]
    total = sum(raw[k] for k in attributed) + raw["host.unattributed_s"]
    if not math.isclose(total, cpu, rel_tol=1e-9, abs_tol=1e-12):
        raise GateError("attributed %.9f + unattributed != cpu_s %.9f" % (
            total, cpu))
    return raw

