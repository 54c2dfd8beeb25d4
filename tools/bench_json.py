#!/usr/bin/env python3
"""Validate a BENCH_*.json emitted by the bench harnesses.

Usage:
    bench_json.py check FILE [--baseline FILE]

The file's "schema" field selects the rule set:

psanim-bench-pr4-v1 (bench/wallclock_suite) — see below.

psanim-bench-pr8-v1 (bench/rank_scaling --out):
  - every rank-scaling row of one world size must report a bit-identical
    virtual makespan (scheduling is a wall-clock knob, never a result
    knob);
  - every platform-sweep leg must be run twice with bit-identical
    makespans (deterministic contention), all legs must share one
    framebuffer hash (topology shifts clocks, never pixels), and the slim
    fat-tree leg must separate from the flat leg (the contention model
    actually bites);
  - every platform-sweep leg carries its critical-path decomposition
    (cp_compute_s + cp_wire_s must cover cp_makespan_s — the trace
    makespan, which itself must not undercut the animation finish — and
    cp_wire_share must land in [0, 1]);
  - the flat leg's critical-path wire share must sit strictly below the
    two-site WAN leg's (a slower fabric must surface as attributed wire
    time, not mystery compute);
  - the farm_slo section's percentiles are monotone (p50 <= p95 <= p99),
    non-negative, slowdowns >= 1, and SJF's p99 wait must not exceed the
    FIFO schedule's makespan (the bound on the latency trade).

psanim-bench-pr8-farm-v1 (bench/farm_throughput --out):
  - per scenario and policy: wait percentiles monotone and non-negative,
    p99 turnaround >= p99 wait, slowdowns >= 1, queue_depth_peak >= 0;
  - scenarios whose sjf_makespan_gate flag is set must report
    sjf_le_fifo_makespan true (the scheduling win the bench itself
    asserts, re-checked from the artifact).

psanim-bench-pr10-farm-v1 (bench/farm_arrivals --out):
  - every leg (fifo, priority, priority_rerun, fair_share, backfill,
    backfill_costaware, backfill_costaware_rerun) drained the whole job
    stream with zero failures, sane SLO percentiles overall and per
    tenant; every leg actually sampled both tenants (a leg with zero
    interactive jobs fails loudly — its latency gates would otherwise
    pass vacuously);
  - every preemptive leg reports preemption_events > 0 (the eviction
    path ran) while FIFO reports exactly 0;
  - the headline gate: the interactive tenant's p99 wait under preemptive
    priority sits strictly below its FIFO p99 wait;
  - the priority and priority_rerun legs match field-for-field as literal
    JSON strings (the preemptive DES is deterministic);
  - fair_share delivered nonzero rank-seconds to all three tenants
    (interactive, batch, batch-wide), differs from priority in preemption
    events, makespan or some tenant's rank-seconds, and cuts the narrow
    batch tenant's p99 wait below its value under priority;
  - the backfill leg's makespan stretch over FIFO sits at or below 1.3x
    (EASY backfill repairs the ~2.6x cost of strict head-of-line
    reservation), with the FIFO makespan guarded nonzero so the ratio is
    never a divide-by-zero or a vacuous pass;
  - the backfill leg's interactive p99 wait stays within 2x of the
    strict-priority leg's (the latency win is not given back), with the
    strict-priority value guarded nonzero;
  - both backfill legs actually backfilled (jobs_backfilled > 0) and
    evicted (preemption_events > 0); non-backfilling legs report exactly
    0 backfills;
  - backfill_costaware and its rerun match field-for-field as literal
    JSON strings (the backfill pass + cost-aware victim selection stay
    deterministic).

PR4 rules:

Hard failures (exit 1):
  - schema mismatch or missing sections
  - virtual-time drift: within a scene, the pooled and unpooled variants
    must report bit-identical virtual makespans, framebuffer hashes and
    final particle counts (wall-clock optimizations must not leak into
    virtual-time results). Floats are compared as their literal JSON
    strings, so "identical" means identical down to the last bit.
  - allocation guard: the pooled variant of every scene, and the pooled
    round-trip kernel, must perform at least 2x fewer heap allocations
    on the message path than the unpooled variant.
  - kernel floor: each kernel's measured speedup (legacy_s / optimized_s)
    must be >= its self-declared min_speedup.
  - --baseline: every scene present in both files must report identical
    makespan strings (regression guard across commits).

Soft warnings (exit 0): kernel speedup below 1.0 while still above its
floor, pooled steady-state allocations that are nonzero.

Stdlib only; floats are parsed with parse_float=str so comparisons are
exact string comparisons, immune to float round-tripping.
"""

import argparse
import json
import sys

SCHEMA = "psanim-bench-pr4-v1"
SCHEMA_PR8 = "psanim-bench-pr8-v1"
SCHEMA_PR8_FARM = "psanim-bench-pr8-farm-v1"
SCHEMA_PR10_FARM = "psanim-bench-pr10-farm-v1"

_failures = []
_warnings = []


def fail(msg):
    _failures.append(msg)
    print(f"FAIL: {msg}")


def warn(msg):
    _warnings.append(msg)
    print(f"warn: {msg}")


def ok(msg):
    print(f"  ok: {msg}")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f, parse_float=str)


def variants_of(scene):
    pooled = [v for v in scene.get("variants", []) if v.get("pool") is True]
    unpooled = [v for v in scene.get("variants", []) if v.get("pool") is False]
    if len(pooled) != 1 or len(unpooled) != 1:
        fail(f"scene {scene.get('name')}: expected exactly one pooled and one "
             f"unpooled variant")
        return None, None
    return pooled[0], unpooled[0]


def check_scene(scene):
    name = scene.get("name", "<unnamed>")
    pooled, unpooled = variants_of(scene)
    if pooled is None:
        return

    for field in ("virtual_makespan_s", "fb_hash", "final_particles"):
        a, b = pooled.get(field), unpooled.get(field)
        if a != b:
            fail(f"scene {name}: {field} differs between pool variants "
                 f"({a!r} vs {b!r}) — virtual time leaked wall-clock state")
        else:
            ok(f"scene {name}: {field} identical across variants ({a})")

    pa = int(pooled.get("buffer_heap_allocs", -1))
    ua = int(unpooled.get("buffer_heap_allocs", -1))
    if pa < 0 or ua < 0:
        fail(f"scene {name}: missing buffer_heap_allocs")
    elif pa * 2 > ua:
        fail(f"scene {name}: pooled heap allocs {pa} not >= 2x fewer than "
             f"unpooled {ua}")
    else:
        ratio = (ua / pa) if pa else float("inf")
        ok(f"scene {name}: heap allocs pooled={pa} unpooled={ua} "
           f"({ratio:.1f}x fewer)")


def check_kernel(k):
    name = k.get("name", "<unnamed>")
    try:
        legacy = float(k["legacy_s"])
        optimized = float(k["optimized_s"])
        floor = float(k.get("min_speedup", "1.0"))
    except (KeyError, ValueError) as e:
        fail(f"kernel {name}: bad timing fields ({e})")
        return
    if optimized <= 0:
        fail(f"kernel {name}: nonpositive optimized_s")
        return
    speedup = legacy / optimized
    if speedup < floor:
        fail(f"kernel {name}: speedup {speedup:.2f}x below floor {floor}x")
    elif speedup < 1.0:
        warn(f"kernel {name}: speedup {speedup:.2f}x (above floor, below 1x)")
    else:
        ok(f"kernel {name}: speedup {speedup:.2f}x (floor {floor}x)")


def check_pool_kernel(pk):
    name = pk.get("name", "<unnamed>")
    pa = int(pk.get("pooled_heap_allocs", -1))
    ua = int(pk.get("unpooled_heap_allocs", -1))
    if pa < 0 or ua < 0:
        fail(f"pool_kernel {name}: missing alloc counts")
        return
    if pa * 2 > ua:
        fail(f"pool_kernel {name}: pooled allocs {pa} not >= 2x fewer than "
             f"unpooled {ua}")
    else:
        ok(f"pool_kernel {name}: heap allocs pooled={pa} unpooled={ua}")
    if pa != 0:
        warn(f"pool_kernel {name}: pooled steady state performed {pa} heap "
             f"allocations (expected 0)")


def check_baseline(doc, base):
    base_scenes = {s.get("name"): s for s in base.get("scenes", [])}
    for scene in doc.get("scenes", []):
        name = scene.get("name")
        if name not in base_scenes:
            warn(f"scene {name}: not present in baseline, skipping")
            continue
        a_pooled, _ = variants_of(scene)
        b_pooled, _ = variants_of(base_scenes[name])
        if a_pooled is None or b_pooled is None:
            continue
        a = a_pooled.get("virtual_makespan_s")
        b = b_pooled.get("virtual_makespan_s")
        if a != b:
            fail(f"scene {name}: virtual makespan drifted from baseline "
                 f"({b!r} -> {a!r})")
        else:
            ok(f"scene {name}: makespan matches baseline ({a})")


def _check_scaling_and_sweep(doc, baseline=None):
    """The rank-scaling and platform-sweep rules of pr8 (see the module
    docstring), plus the --baseline makespan comparison."""
    rows = doc.get("rank_scaling", [])
    if not rows:
        fail("no rank_scaling section")
    by_world = {}
    for r in rows:
        by_world.setdefault(r.get("world"), set()).add(
            r.get("virtual_makespan_s"))
    for world, spans in sorted(by_world.items()):
        if len(spans) != 1:
            fail(f"world {world}: cores disagree on the virtual makespan "
                 f"({sorted(spans)}) — scheduling leaked into results")
        else:
            ok(f"world {world}: {len([r for r in rows if r.get('world') == world])} "
               f"cores share one makespan ({next(iter(spans))})")

    sweep = doc.get("platform_sweep", [])
    if not sweep:
        fail("no platform_sweep section")
        return
    legs = {r.get("platform"): r for r in sweep}
    hashes = set()
    for r in sweep:
        name = r.get("platform", "<unnamed>")
        a, b = r.get("makespan_run1_s"), r.get("makespan_run2_s")
        if a != b:
            fail(f"platform {name}: two runs disagree ({a!r} vs {b!r}) — "
                 f"contention is not deterministic")
        else:
            ok(f"platform {name}: reproducible makespan ({a})")
        hashes.add(r.get("fb_hash"))
    if len(hashes) != 1:
        fail(f"platform sweep: framebuffer hashes differ across platforms "
             f"({sorted(hashes)}) — topology changed pixels")
    else:
        ok(f"platform sweep: one framebuffer hash across "
           f"{len(sweep)} platforms")
    for required in ("flat", "fattree-slim"):
        if required not in legs:
            fail(f"platform sweep: missing required leg {required!r}")
            return
    if (legs["fattree-slim"]["makespan_run1_s"]
            == legs["flat"]["makespan_run1_s"]):
        fail("platform sweep: slim fat-tree makespan equals flat — the "
             "contention model did not separate the topologies")
    else:
        ok(f"platform sweep: fattree-slim ({legs['fattree-slim']['makespan_run1_s']}) "
           f"separates from flat ({legs['flat']['makespan_run1_s']})")

    if baseline:
        base_legs = {r.get("platform"): r
                     for r in baseline.get("platform_sweep", [])}
        for name, r in legs.items():
            if name not in base_legs:
                warn(f"platform {name}: not present in baseline, skipping")
                continue
            a = r.get("makespan_run1_s")
            b = base_legs[name].get("makespan_run1_s")
            if a != b:
                fail(f"platform {name}: makespan drifted from baseline "
                     f"({b!r} -> {a!r})")
            else:
                ok(f"platform {name}: makespan matches baseline ({a})")


def _percentiles_sane(tag, block, kind="seconds"):
    """Monotone, non-negative wait percentiles; p99 turnaround covers p99
    wait; slowdown percentiles >= 1 (a job can never beat its own
    contention-free standalone run)."""
    try:
        w50 = float(block["wait_p50_s"])
        w95 = float(block["wait_p95_s"])
        w99 = float(block["wait_p99_s"])
        t99 = float(block["turnaround_p99_s"])
        s50 = float(block["slowdown_p50"])
        s99 = float(block["slowdown_p99"])
    except (KeyError, ValueError) as e:
        fail(f"{tag}: missing or malformed SLO percentile ({e})")
        return None
    if not (0.0 <= w50 <= w95 <= w99):
        fail(f"{tag}: wait percentiles not monotone "
             f"(p50={w50} p95={w95} p99={w99})")
    elif t99 < w99:
        fail(f"{tag}: p99 turnaround {t99} below p99 wait {w99}")
    elif not (s50 <= s99):
        fail(f"{tag}: slowdown percentiles not monotone ({s50} > {s99})")
    elif int(block.get("jobs_done", 0)) > 0 and not (s50 >= 1.0 - 1e-9):
        fail(f"{tag}: slowdown p50 {s50} below 1 — a job outran its "
             f"standalone self")
    else:
        ok(f"{tag}: wait p50/p95/p99 = {w50}/{w95}/{w99} {kind}, "
           f"slowdown p99 = {s99}")
    return w99


def check_pr8(doc, baseline=None):
    _check_scaling_and_sweep(doc, baseline)

    for r in doc.get("platform_sweep", []):
        name = r.get("platform", "<unnamed>")
        try:
            animation = float(r["makespan_run1_s"])
            makespan = float(r["cp_makespan_s"])
            compute = float(r["cp_compute_s"])
            wire = float(r["cp_wire_s"])
            share = float(r["cp_wire_share"])
        except (KeyError, ValueError) as e:
            fail(f"platform {name}: missing critical-path fields ({e})")
            continue
        if abs(compute + wire - makespan) > 1e-9 * max(1.0, makespan):
            fail(f"platform {name}: cp_compute_s + cp_wire_s = "
                 f"{compute + wire} does not cover the trace makespan "
                 f"{makespan}")
        elif makespan < animation - 1e-9 * max(1.0, animation):
            fail(f"platform {name}: trace makespan {makespan} below the "
                 f"animation finish {animation} — the trace missed records")
        elif not 0.0 <= share <= 1.0:
            fail(f"platform {name}: cp_wire_share {share} outside [0, 1]")
        else:
            ok(f"platform {name}: critical path covers the makespan "
               f"({100.0 * share:.1f}% wire)")
    legs = {r.get("platform"): r for r in doc.get("platform_sweep", [])}
    if "flat" in legs and "wan2" in legs:
        flat = float(legs["flat"].get("cp_wire_share", "0"))
        wan = float(legs["wan2"].get("cp_wire_share", "0"))
        if not flat < wan:
            fail(f"critical-path wire share did not rise from flat ({flat}) "
                 f"to wan2 ({wan}) — the slower fabric hid in compute")
        else:
            ok(f"wire share rises flat -> wan2 ({flat} < {wan})")
    else:
        fail("platform sweep missing the flat or wan2 leg")

    slo = doc.get("farm_slo")
    if not isinstance(slo, dict) or "fifo" not in slo or "sjf" not in slo:
        fail("no farm_slo section with fifo + sjf legs")
        return
    for policy in ("fifo", "sjf"):
        block = slo[policy]
        if int(block.get("jobs_done", 0)) <= 0:
            fail(f"farm_slo {policy}: no completed jobs")
        _percentiles_sane(f"farm_slo {policy}", block)
    sjf_w99 = float(slo["sjf"].get("wait_p99_s", "inf"))
    fifo_makespan = float(slo["fifo"].get("makespan_s", "0"))
    if sjf_w99 > fifo_makespan + 1e-9:
        fail(f"farm_slo: SJF p99 wait {sjf_w99} exceeds the FIFO makespan "
             f"{fifo_makespan} — the latency trade went past its bound")
    else:
        ok(f"farm_slo: SJF p99 wait {sjf_w99} within the FIFO makespan "
           f"{fifo_makespan}")


def check_pr8_farm(doc):
    scenarios = doc.get("scenarios", [])
    if not scenarios:
        fail("no scenarios section")
        return
    for sc in scenarios:
        name = sc.get("name", "<unnamed>")
        for policy in ("fifo", "sjf"):
            block = sc.get(policy)
            if not isinstance(block, dict):
                fail(f"scenario {name}: missing {policy} block")
                continue
            if int(block.get("queue_depth_peak", -1)) < 0:
                fail(f"scenario {name} {policy}: bad queue_depth_peak")
            _percentiles_sane(f"scenario {name} {policy}", block)
        if (sc.get("sjf_makespan_gate") is True
                and sc.get("sjf_le_fifo_makespan") is not True):
            fail(f"scenario {name}: SJF makespan exceeded FIFO's — the "
                 f"scheduling win regressed")


_RERUN_FIELDS = ("makespan_s", "wait_p50_s", "wait_p95_s", "wait_p99_s",
                 "turnaround_p99_s", "slowdown_p99", "preemption_events",
                 "migrations", "jobs_preempted")


def _check_arrival_legs(doc, required):
    """Per-leg checks of the pr10 arrival-stream schema.

    Returns the legs dict, or None when the document is too malformed to
    gate. Every leg must have drained the full stream, carry sane SLO
    percentiles, and have actually *sampled* both tenants: a leg whose
    interactive (or batch) tenant block is missing or empty fails loudly
    here, because every downstream latency gate over that tenant would
    otherwise pass vacuously.
    """
    legs = doc.get("legs")
    if not isinstance(legs, dict) or any(k not in legs for k in required):
        fail(f"legs section must contain {required}")
        return None
    total = int(doc.get("jobs", -1))
    if total <= 0:
        fail("missing or nonpositive jobs count")
        return None
    for name in required:
        block = legs[name]
        if int(block.get("jobs_done", -1)) != total:
            fail(f"leg {name}: drained {block.get('jobs_done')} of {total} "
                 f"jobs — the scheduler lost work")
        if int(block.get("jobs_failed", -1)) != 0:
            fail(f"leg {name}: {block.get('jobs_failed')} jobs failed")
        if int(block.get("queue_depth_peak", -1)) < 0:
            fail(f"leg {name}: bad queue_depth_peak")
        _percentiles_sane(f"leg {name}", block)
        tenants = block.get("tenants", {})
        for tenant in ("interactive", "batch"):
            if int(tenants.get(tenant, {}).get("jobs", 0)) <= 0:
                fail(f"leg {name}: sampled zero {tenant} jobs — every "
                     f"{tenant}-tenant gate would pass vacuously")
        for tenant, slo in tenants.items():
            try:
                t50 = float(slo["wait_p50_s"])
                t99 = float(slo["wait_p99_s"])
                ts99 = float(slo["slowdown_p99"])
            except (KeyError, ValueError) as e:
                fail(f"leg {name} tenant {tenant}: bad SLO block ({e})")
                continue
            if not (0.0 <= t50 <= t99):
                fail(f"leg {name} tenant {tenant}: wait percentiles not "
                     f"monotone (p50={t50} p99={t99})")
            elif int(slo.get("jobs", 0)) > 0 and ts99 < 1.0 - 1e-9:
                fail(f"leg {name} tenant {tenant}: slowdown p99 {ts99} "
                     f"below 1")
    return legs


def _tenant_p99(legs, leg, tenant):
    """The tenant's p99 wait as a float, or None (already failed) when the
    block is missing — never a KeyError crash on degenerate input."""
    try:
        return float(legs[leg]["tenants"][tenant]["wait_p99_s"])
    except (KeyError, ValueError):
        fail(f"leg {leg}: missing or malformed {tenant} tenant block")
        return None


def _check_preemption_and_rerun(legs, preemptive, rerun_pairs):
    """The preemption-exercised and rerun-identity gates: every preemptive
    leg evicted, FIFO never did, and each
    (leg, leg_rerun) pair matches field-for-field as literal JSON strings
    (parse_float=str makes that bit-exact determinism)."""
    for name in preemptive:
        if int(legs[name].get("preemption_events", 0)) <= 0:
            fail(f"leg {name}: a preemptive policy never preempted under a "
                 f"heavy-tailed overload — the eviction path is dead")
        else:
            ok(f"leg {name}: {legs[name]['preemption_events']} preemption "
               f"event(s), {legs[name].get('migrations', 0)} migration(s)")
    if int(legs["fifo"].get("preemption_events", -1)) != 0:
        fail("leg fifo: a non-preemptive policy reported preemptions")
    for a, b, extra in rerun_pairs:
        for field in _RERUN_FIELDS + extra:
            va, vb = legs[a].get(field), legs[b].get(field)
            if va != vb:
                fail(f"{a} vs {b}: {field} differs ({va!r} vs {vb!r}) — "
                     f"the preemptive DES leaked nondeterminism")
        ok(f"{a} leg reproduces bit-identically across reruns")


def _check_headline_interactive(legs):
    """PR-9 headline: preemptive priority must cut the interactive
    tenant's p99 wait below FIFO's. Compared as floats (the values come
    from different legs, so string equality is meaningless here)."""
    fifo_i = _tenant_p99(legs, "fifo", "interactive")
    prio_i = _tenant_p99(legs, "priority", "interactive")
    if fifo_i is None or prio_i is None:
        return
    if not prio_i < fifo_i:
        fail(f"interactive p99 wait under priority ({prio_i}) not below "
             f"FIFO ({fifo_i}) — preemption bought nothing")
    else:
        ok(f"interactive p99 wait: priority {prio_i} < fifo {fifo_i}")


def _check_fair_share_service(legs):
    """Fair-share served every tenant, and is a policy of its own: the two
    batch tenants tie on priority, so a fair_share leg equal to the
    priority leg in preemption events, makespan and every tenant's service
    never ranked the queue by service (the blind spot this gate closes),
    and fair-share must cut the narrow batch tenant's p99 wait below its
    value under priority."""
    fair, prio = legs["fair_share"], legs["priority"]
    ranks = fair.get("tenant_rank_s", {})
    for tenant in ("interactive", "batch", "batch-wide"):
        if float(ranks.get(tenant, "0")) <= 0.0:
            fail(f"fair_share: tenant {tenant} received no service "
                 f"(tenant_rank_s missing or zero)")
    if (fair.get("preemption_events") == prio.get("preemption_events")
            and fair.get("makespan_s") == prio.get("makespan_s")
            and ranks == prio.get("tenant_rank_s", {})):
        fail("fair_share equals priority in preemption_events, makespan_s "
             "and every tenant_rank_s — fair-share never ranked by service")
    else:
        ok("fair_share diverges from priority")
    fair_b = _tenant_p99(legs, "fair_share", "batch")
    prio_b = _tenant_p99(legs, "priority", "batch")
    if fair_b is None or prio_b is None:
        return
    if not fair_b < prio_b:
        fail(f"batch p99 wait under fair_share ({fair_b}) not below "
             f"priority ({prio_b}) — fair-share bought the narrow tenant "
             f"nothing")
    else:
        ok(f"batch p99 wait: fair_share {fair_b} < priority {prio_b}")


def check_pr10_farm(doc):
    required = ("fifo", "priority", "priority_rerun", "fair_share",
                "backfill", "backfill_costaware", "backfill_costaware_rerun")
    legs = _check_arrival_legs(doc, required)
    if legs is None:
        return
    _check_preemption_and_rerun(
        legs,
        preemptive=("priority", "fair_share", "backfill",
                    "backfill_costaware"),
        rerun_pairs=[("priority", "priority_rerun", ()),
                     ("backfill_costaware", "backfill_costaware_rerun",
                      ("jobs_backfilled",))])
    _check_headline_interactive(legs)
    _check_fair_share_service(legs)

    # Backfill actually ran where it should, and only there.
    for name in ("backfill", "backfill_costaware"):
        if int(legs[name].get("jobs_backfilled", 0)) <= 0:
            fail(f"leg {name}: never backfilled a job — the EASY pass "
                 f"is dead")
        else:
            ok(f"leg {name}: {legs[name]['jobs_backfilled']} job(s) "
               f"backfilled")
    for name in ("fifo", "priority", "fair_share"):
        if int(legs[name].get("jobs_backfilled", -1)) != 0:
            fail(f"leg {name}: a non-backfilling leg reported backfills")

    # The PR-10 headline: EASY backfill caps the batch makespan stretch
    # over FIFO at 1.3x (strict reservation pays ~2.6x), without giving
    # back the interactive-latency win (within 2x of strict priority's
    # p99). Both denominators are guarded: a zero FIFO makespan or a zero
    # strict-priority p99 is a degenerate run that must fail loudly, not
    # divide by zero or bound nothing.
    try:
        fifo_mk = float(legs["fifo"]["makespan_s"])
        bf_mk = float(legs["backfill"]["makespan_s"])
    except (KeyError, ValueError) as e:
        fail(f"fifo/backfill legs missing makespan_s ({e})")
        return
    if not fifo_mk > 0.0:
        fail(f"fifo makespan {fifo_mk} not positive — the stretch gate "
             f"is undefined")
        return
    stretch = bf_mk / fifo_mk
    if stretch > 1.3:
        fail(f"backfill makespan stretch {stretch:.3f}x over FIFO exceeds "
             f"the 1.3x bound ({bf_mk} vs {fifo_mk})")
    else:
        ok(f"backfill makespan stretch {stretch:.3f}x <= 1.3x over FIFO")
    prio_i = _tenant_p99(legs, "priority", "interactive")
    bf_i = _tenant_p99(legs, "backfill", "interactive")
    if prio_i is None or bf_i is None:
        return
    if not prio_i > 0.0:
        fail(f"strict-priority interactive p99 wait {prio_i} not positive "
             f"— the 2x latency bound is vacuous")
    elif bf_i > 2.0 * prio_i:
        fail(f"backfill interactive p99 wait {bf_i} exceeds 2x the "
             f"strict-priority value {prio_i}")
    else:
        ok(f"backfill interactive p99 {bf_i} within 2x of strict "
           f"priority's {prio_i}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    chk = sub.add_parser("check", help="validate a BENCH_*.json")
    chk.add_argument("file")
    chk.add_argument("--baseline", help="previous BENCH_*.json to compare "
                     "virtual makespans against")
    args = ap.parse_args()

    doc = load(args.file)
    if doc.get("schema") == SCHEMA_PR8:
        check_pr8(doc, load(args.baseline) if args.baseline else None)
        print(f"\n{args.file}: {len(_failures)} failure(s), "
              f"{len(_warnings)} warning(s)")
        return 1 if _failures else 0
    if doc.get("schema") == SCHEMA_PR8_FARM:
        check_pr8_farm(doc)
        print(f"\n{args.file}: {len(_failures)} failure(s), "
              f"{len(_warnings)} warning(s)")
        return 1 if _failures else 0
    if doc.get("schema") == SCHEMA_PR10_FARM:
        check_pr10_farm(doc)
        print(f"\n{args.file}: {len(_failures)} failure(s), "
              f"{len(_warnings)} warning(s)")
        return 1 if _failures else 0
    if doc.get("schema") != SCHEMA:
        fail(f"schema {doc.get('schema')!r} != {SCHEMA!r}")
    scenes = doc.get("scenes", [])
    kernels = doc.get("kernels", [])
    if not scenes:
        fail("no scenes section")
    if not kernels:
        fail("no kernels section")

    for k in kernels:
        check_kernel(k)
    if "pool_kernel" in doc:
        check_pool_kernel(doc["pool_kernel"])
    else:
        fail("no pool_kernel section")
    for s in scenes:
        check_scene(s)
    if args.baseline:
        check_baseline(doc, load(args.baseline))

    print(f"\n{args.file}: {len(_failures)} failure(s), "
          f"{len(_warnings)} warning(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
