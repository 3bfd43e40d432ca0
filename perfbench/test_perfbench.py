#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then checks on a held-out seed that
metric names and units are well formed and match BENCHMARK.json, that every
counter repeats exactly across two runs, that host shares sum to 1, and that
the layer counters reconcile with the guest I/O counts.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's runner)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7  # not the seed expected.json stores
BINARY = None


def invoke(workload, trace, seconds=0.5):
    """Runs the benchmark binary; returns (result dict, {counter: value})."""
    out = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    counters = {}
    for line in lines[:-1]:
        if line.startswith("counter "):
            name, value = line[len("counter "):].split("=")
            counters[name] = int(value)
    return json.loads(lines[-1]), counters


def declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measured_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


class Layers(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in measured_workloads():
            cls.runs[w] = (invoke(w, 1), invoke(w, 1))

    def test_result_shape_and_names(self):
        want = declared("per_layer")
        for w, ((res, _), _) in self.runs.items():
            with self.subTest(workload=w):
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                for name, m in res["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertRegex(m["unit"], UNIT)
                got = {n: m["unit"] for n, m in res["metrics"].items()}
                self.assertEqual(got, want)

    def test_counters_repeat_exactly(self):
        for w, ((res1, c1), (res2, c2)) in self.runs.items():
            with self.subTest(workload=w):
                self.assertTrue(c1)
                self.assertEqual(c1, c2)
                for name, m in res1["metrics"].items():
                    if m["unit"] in ("count", "bytes") and not name.startswith(
                            "host_share"):
                        self.assertEqual(m["value"],
                                         res2["metrics"][name]["value"], name)

    def test_host_shares_sum_to_one(self):
        for w, ((res, _), _) in self.runs.items():
            with self.subTest(workload=w):
                m = res["metrics"]
                self.assertGreater(m["host_share.samples"]["value"], 0)
                total = sum(v["value"] for n, v in m.items()
                            if n.startswith("host_share.")
                            and n != "host_share.samples")
                self.assertAlmostEqual(total, 1.0, places=9)

    def test_expected_layers_have_samples(self):
        expect = {"mixed_fio": ["sim", "net", "solar"],
                  "ec_rmw": ["ec", "kernels"],
                  "tenant_overload": ["qos"]}
        for w, mods in expect.items():
            m = self.runs[w][0][0]["metrics"]
            for mod in mods:
                self.assertGreater(m[f"host_share.{mod}"]["value"], 0,
                                   f"{w}: {mod}")

    def test_counters_reconcile(self):
        for w in ("mixed_fio", "fleet_sharded"):
            c = self.runs[w][0][1]
            # At quiesce nothing is in flight: completed == issued.
            self.assertEqual(c["guest.completed"], c["guest.issued"])
            self.assertEqual(c["sa.ios"], c["guest.issued"], w)
        c = self.runs["tenant_overload"][0][1]
        self.assertEqual(c["qos.admitted"] + c["qos.rejected"],
                         c["guest.issued"])
        self.assertEqual(c["sa.ios"], c["qos.admitted"])


class EndToEnd(unittest.TestCase):
    def test_dark_run_reports_end_to_end_metrics(self):
        res, _ = invoke("tenant_overload", 0)
        self.assertTrue(res["correct"])
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        self.assertEqual(got, declared("end_to_end"))
        for m in res["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_bad_arguments_fail_without_result(self):
        out = subprocess.run([str(BINARY), "--workload", "nope", "--seed",
                              "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
