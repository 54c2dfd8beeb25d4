"""Self-tests for the benchmark's checker: degenerate results must fail
loudly, never pass vacuously or divide by zero.

    python3 perfbench/test_gate.py
"""

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402

SIM_FP = {"fb_hash": "0b8ef194db55a667", "final_particles": 328112,
          "particle_updates": 9878286, "virtual_makespan_s": 3.93057946999}
FARM_FP = {"jobs": 1540, "jobs_done": 1540, "jobs_failed": 0,
           "jobs_cancelled": 0, "jobs_digest": "1ebdb676f68b6444",
           "virtual_makespan_s": 3.3953, "wait_p50_s": 0.448,
           "wait_p50_beyond": 770, "wait_p99_s": 0.9525,
           "wait_p99_beyond": 15, "interactive_wait_p95_s": 0.0055,
           "interactive_wait_p95_beyond": 15}
SIM_LAYERS = {"psys.actions_s": 0.77, "psys.create_s": 0.015,
              "core.frame_vertex_ns_per_particle": 46.5,
              "core.exchange_codec_ns_per_particle": 138.0,
              "psys.store_snapshot_ns_per_particle": 18.3,
              "render.splat_ns_per_particle": 34.5,
              "render.particles_rendered": 9878286, "core.crossers": 29123,
              "sim.sequential_cpu_s": 1.43}
FARM_LAYERS = {"farm.job_exec_est_s": 1.02,
               "core.frame_vertex_ns_per_particle": 52.0,
               "core.exchange_codec_ns_per_particle": 84.0,
               "psys.store_snapshot_ns_per_particle": 16.0,
               "render.splat_ns_per_particle": 32.0,
               "render.particles_rendered": 390788, "core.crossers": 240}


def make_doc(workload, fp, layers, passes=3):
    def one(wall, cpu, jobs):
        return {"wall_s": wall, "cpu_s": cpu, "ok": True, "error": "",
                "attempted": fp.get("jobs", 1), "failed": 0, "jobs": jobs,
                "fingerprint": copy.deepcopy(fp)}
    jobs = fp.get("jobs_done", 1)
    return {
        "workload": workload, "seed": 1,
        "setup_s": [1e-5, 1.2e-5, 0.9e-5],
        "warmup": one(1.4, 2.7, jobs),
        "passes": [one(1.2 + 0.01 * i, 2.2 + 0.01 * i, jobs)
                   for i in range(passes)],
        "peak_rss_mb": 125.0,
        "traced": dict(one(1.3, 2.5, jobs), particle_updates=9878286,
                       layers=dict(layers),
                       oracle={"ok": True, "detail": ""}),
    }


def verdict(doc, reference=None):
    attempted, failed, problems = gate.check(doc, reference)
    return problems


class GoodRunPasses(unittest.TestCase):
    def test_sim_and_farm_pass_with_every_metric(self):
        for workload, fp, layers in (("snow_fs_dlb", SIM_FP, SIM_LAYERS),
                                     ("farm_stream", FARM_FP, FARM_LAYERS)):
            doc = make_doc(workload, fp, layers)
            self.assertEqual(verdict(doc, copy.deepcopy(fp)), [])
            e2e = gate.end_to_end(doc)
            self.assertGreater(e2e["cpu_s"][0], 0)
            per = gate.per_layer(doc, e2e)
            total = sum(per[k] for k in gate.ATTRIBUTED[workload])
            self.assertAlmostEqual(total + per["host.unattributed_s"],
                                   doc["traced"]["cpu_s"])


class DegenerateRunsFail(unittest.TestCase):
    def test_hash_mismatch_against_reference(self):
        doc = make_doc("snow_fs_dlb", SIM_FP, SIM_LAYERS)
        ref = dict(SIM_FP, fb_hash="ffffffffffffffff")
        problems = verdict(doc, ref)
        self.assertTrue(any("mismatch" in p and "fb_hash" in p
                            for p in problems), problems)

    def test_hash_mismatch_between_passes(self):
        doc = make_doc("fountain_is_dlb", SIM_FP, SIM_LAYERS)
        doc["passes"][2]["fingerprint"]["fb_hash"] = "0000000000000000"
        attempted, failed, problems = gate.check(doc, None)
        self.assertTrue(problems)
        self.assertGreater(failed, 0)

    def test_zero_jobs_drained(self):
        fp = dict(FARM_FP, jobs_done=0)
        doc = make_doc("farm_stream", fp, FARM_LAYERS)
        for p in doc["passes"] + [doc["traced"]]:
            p["jobs"] = 0
        self.assertIn("zero jobs drained", verdict(doc))
        with self.assertRaises(gate.GateError):
            gate.end_to_end(doc)  # jobs_per_cpu_s would read 0

    def test_percentile_with_too_few_samples_beyond(self):
        fp = dict(FARM_FP, interactive_wait_p95_beyond=9)
        doc = make_doc("farm_stream", fp, FARM_LAYERS)
        problems = verdict(doc)
        self.assertTrue(any("interactive_wait_p95_s" in p for p in problems),
                        problems)

    def test_traced_untraced_divergence(self):
        doc = make_doc("snow_fs_dlb", SIM_FP, SIM_LAYERS)
        doc["traced"]["fingerprint"]["virtual_makespan_s"] += 1e-12
        for ref in (None, copy.deepcopy(SIM_FP)):
            problems = verdict(doc, ref)
            self.assertTrue(any("traced/untraced divergence" in p
                                for p in problems), problems)

    def test_empty_layer_set(self):
        doc = make_doc("snow_fs_dlb", SIM_FP, {})
        with self.assertRaises(gate.GateError):
            gate.per_layer(doc, gate.end_to_end(doc))

    def test_unmeasured_layer_value(self):
        layers = dict(SIM_LAYERS, **{"psys.actions_s": None})
        doc = make_doc("snow_fs_dlb", SIM_FP, layers)
        with self.assertRaises(gate.GateError):
            gate.per_layer(doc, gate.end_to_end(doc))

    def test_no_passes(self):
        doc = make_doc("snow_fs_dlb", SIM_FP, SIM_LAYERS, passes=0)
        self.assertTrue(verdict(doc))
        with self.assertRaises(gate.GateError):
            gate.end_to_end(doc)

    def test_zero_pass_time(self):
        for key in ("wall_s", "cpu_s"):
            doc = make_doc("snow_fs_dlb", SIM_FP, SIM_LAYERS)
            for p in doc["passes"]:
                p[key] = 0.0
            with self.assertRaises(gate.GateError):
                gate.end_to_end(doc)

    def test_failed_oracle(self):
        doc = make_doc("fountain_is_dlb", SIM_FP, SIM_LAYERS)
        doc["traced"]["oracle"] = {"ok": False, "detail": "system 3 differs"}
        self.assertTrue(any("oracle" in p for p in verdict(doc)))

    def test_pass_that_threw(self):
        doc = make_doc("snow_fs_dlb", SIM_FP, SIM_LAYERS)
        doc["passes"][1].update(ok=False, error="recv timeout")
        attempted, failed, problems = gate.check(doc, None)
        self.assertEqual(failed, 1)
        self.assertTrue(any("threw" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
