#!/usr/bin/env python3
"""Unit tests for bench_json.py on synthetic artifacts.

The regression these pin down: the arrival-stream checker used to pass
vacuously when a leg sampled zero interactive jobs (the tenant loop
skipped the empty block, the KeyError path never fired for a
present-but-empty dict), and a degenerate zero-makespan FIFO leg would
have turned the pr10 stretch gate into a divide-by-zero. Both must fail
*loudly* — nonzero exit with a diagnostic — never crash, never silently
pass. Retired schemas no bench emits any more must be refused, not
half-checked.

Runs the checker as a subprocess (its failure tally is module-global
state, so each check gets a fresh interpreter). Stdlib only; invoked by
CTest as tools.bench_json_unit.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "bench_json.py")


def leg(makespan, *, preempted=0, events=0, backfilled=0,
        interactive_jobs=20, interactive_p99=0.006, batch_p99=1.2,
        batch_rank_s=3.0):
    return {
        "makespan_s": makespan,
        "jobs_done": 100, "jobs_failed": 0,
        "jobs_preempted": preempted, "jobs_backfilled": backfilled,
        "preemption_events": events, "migrations": 0,
        "wait_p50_s": 0.01, "wait_p95_s": 0.05, "wait_p99_s": 0.09,
        "turnaround_p99_s": 0.5, "slowdown_p50": 1.5, "slowdown_p99": 40.0,
        "queue_depth_peak": 30,
        "tenants": {
            "interactive": {"jobs": interactive_jobs, "wait_p50_s": 0.001,
                            "wait_p99_s": interactive_p99,
                            "slowdown_p99": 2.0},
            "batch": {"jobs": 90 - interactive_jobs, "wait_p50_s": 0.02,
                      "wait_p99_s": batch_p99, "slowdown_p99": 50.0},
            "batch-wide": {"jobs": 10, "wait_p50_s": 0.02,
                           "wait_p99_s": 1.5, "slowdown_p99": 60.0},
        },
        "tenant_rank_s": {"interactive": 0.4, "batch": batch_rank_s,
                          "batch-wide": 1.8},
    }


def pr10_doc():
    prio = leg(10.4, preempted=19, events=22)
    bfc = leg(5.2, preempted=12, events=20, backfilled=7,
              interactive_p99=0.009)
    return {
        "schema": "psanim-bench-pr10-farm-v1",
        "mode": "quick", "jobs": 100, "slots": 32,
        "interarrival_mean_s": 0.001,
        "legs": {
            "fifo": leg(4.0, interactive_p99=1.2),
            "priority": prio,
            "priority_rerun": copy.deepcopy(prio),
            "fair_share": leg(10.1, preempted=21, events=25, batch_p99=0.3,
                              batch_rank_s=3.2),
            "backfill": leg(5.0, preempted=18, events=22, backfilled=2,
                            interactive_p99=0.01),
            "backfill_costaware": bfc,
            "backfill_costaware_rerun": copy.deepcopy(bfc),
        },
    }


class BenchJsonCheck(unittest.TestCase):
    def run_check(self, doc):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
            path = f.name
        try:
            return subprocess.run(
                [sys.executable, CHECKER, "check", path],
                capture_output=True, text=True, timeout=60)
        finally:
            os.unlink(path)

    def assert_fails(self, doc, needle):
        r = self.run_check(doc)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn(needle, r.stdout, r.stdout + r.stderr)
        # Loud means a diagnostic, not a traceback.
        self.assertNotIn("Traceback", r.stderr, r.stderr)

    def test_valid_pr10_passes(self):
        r = self.run_check(pr10_doc())
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_retired_schemas_are_refused(self):
        for schema in ("psanim-bench-pr7-v1", "psanim-bench-pr9-farm-v1"):
            doc = pr10_doc()
            doc["schema"] = schema
            self.assert_fails(doc, "schema")

    def test_pr10_zero_interactive_jobs_fails_loudly(self):
        doc = pr10_doc()
        doc["legs"]["priority"]["tenants"]["interactive"]["jobs"] = 0
        doc["legs"]["priority_rerun"]["tenants"]["interactive"]["jobs"] = 0
        self.assert_fails(doc, "zero interactive jobs")

    def test_pr10_missing_interactive_block_fails_loudly(self):
        doc = pr10_doc()
        for name in ("priority", "priority_rerun"):
            del doc["legs"][name]["tenants"]["interactive"]
        self.assert_fails(doc, "zero interactive jobs")

    def test_pr10_zero_fifo_makespan_fails_not_divides(self):
        doc = pr10_doc()
        doc["legs"]["fifo"]["makespan_s"] = 0.0
        self.assert_fails(doc, "stretch gate")

    def test_pr10_stretch_over_bound_fails(self):
        doc = pr10_doc()
        doc["legs"]["backfill"]["makespan_s"] = 10.4  # 2.6x of fifo's 4.0
        self.assert_fails(doc, "stretch")

    def test_pr10_interactive_regression_fails(self):
        doc = pr10_doc()
        doc["legs"]["backfill"]["tenants"]["interactive"]["wait_p99_s"] = 0.1
        self.assert_fails(doc, "2x the strict-priority value")

    def test_pr10_zero_priority_p99_fails_vacuous_bound(self):
        doc = pr10_doc()
        for name in ("priority", "priority_rerun"):
            doc["legs"][name]["tenants"]["interactive"]["wait_p99_s"] = 0.0
            doc["legs"][name]["tenants"]["interactive"]["wait_p50_s"] = 0.0
        doc["legs"]["backfill"]["tenants"]["interactive"]["wait_p99_s"] = 0.0
        doc["legs"]["backfill"]["tenants"]["interactive"]["wait_p50_s"] = 0.0
        self.assert_fails(doc, "vacuous")

    def test_pr10_dead_backfill_fails(self):
        doc = pr10_doc()
        doc["legs"]["backfill"]["jobs_backfilled"] = 0
        self.assert_fails(doc, "never backfilled")

    def test_pr10_rerun_mismatch_fails(self):
        doc = pr10_doc()
        doc["legs"]["backfill_costaware_rerun"]["jobs_backfilled"] = 8
        self.assert_fails(doc, "backfill_costaware_rerun")

    def test_pr10_fair_share_identical_to_priority_fails(self):
        # The blind spot: a fair_share leg that is the priority leg again.
        doc = pr10_doc()
        doc["legs"]["fair_share"] = copy.deepcopy(doc["legs"]["priority"])
        self.assert_fails(doc, "never ranked by service")

    def test_pr10_fair_share_not_cutting_batch_wait_fails(self):
        doc = pr10_doc()
        doc["legs"]["fair_share"]["tenants"]["batch"]["wait_p99_s"] = 1.2
        self.assert_fails(doc, "bought the narrow tenant nothing")

    def test_pr10_fair_share_unserved_wide_tenant_fails(self):
        doc = pr10_doc()
        del doc["legs"]["fair_share"]["tenant_rank_s"]["batch-wide"]
        self.assert_fails(doc, "tenant batch-wide received no service")

    def test_pr10_lost_jobs_fail(self):
        doc = pr10_doc()
        doc["legs"]["backfill"]["jobs_done"] = 99
        self.assert_fails(doc, "lost work")


if __name__ == "__main__":
    unittest.main()
