#!/usr/bin/env python3
"""Each output checker must pass right answers and fail a deliberately
wrong one.

    python3 perfbench/test_checks.py      (from the checkout root)
"""

import copy
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from pb import checks, inputs, workloads  # noqa: E402

ROOT = os.getcwd()


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(ROOT)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        cls.dir = tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, ".perfbench"))
        cls.ctx = inputs.Ctx(ROOT, cls.dir, 7)
        prog = cls.ctx.cgen(40, 7, cls.ctx.path("p.c"))
        keys = [("wc", i) for i in inputs.INSTANCES] + [(prog, "cis")]
        cls.inp = {"ops": keys, "naive": ["wc"], "ladder": [prog]}
        cls.answers = [(k, workloads.analyze_once(cls.ctx, *k)) for k in keys]
        cls.refs = workloads.ref_dict(cls.ctx, keys, "test")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def wrong(self, answers):
        bad = copy.deepcopy(answers)
        bad[1][1]["total_edges"] += 1
        return bad

    def test_cold(self):
        self.assertEqual(workloads.cold_checks(self.ctx, self.inp, self.answers), [])
        self.assertTrue(workloads.cold_checks(self.ctx, self.inp, self.wrong(self.answers)))

    def test_cold_degraded_ladder(self):
        bad = copy.deepcopy(self.answers)
        bad[-1][1]["degraded"] = [{"obj": None}]
        self.assertTrue(workloads.cold_checks(self.ctx, self.inp, bad))

    def test_oracle(self):
        fails = workloads.cold_checks(self.ctx, self.inp, self.answers, oracle="--oracle-wrong")
        self.assertTrue(any(f.startswith("oracle") for f in fails))

    def test_naive(self):
        line = '{"program":"wc","total_edges":0}'
        self.assertTrue(checks.cold([], {}, {}, [line], [line.replace("0", "1")], []))
        self.assertFalse(checks.cold([], {}, {}, [line], [line], []))

    def test_watch(self):
        self.assertEqual(checks.watch(self.answers, self.refs), [])
        self.assertTrue(checks.watch(self.wrong(self.answers), self.refs))
        self.assertTrue(checks.watch([(self.answers[0][0], None)], self.refs))

    def test_serve(self):
        def response(ans, hits):
            result = dict(ans, store={"hits": hits})
            return {"status": "done", "result": result}

        ok = [(k, response(a, 0)) for k, a in self.answers]
        ok.append((ok[0][0], response(self.answers[0][1], 1)))
        self.assertEqual(checks.serve(ok, self.refs, 1), [])
        self.assertTrue(checks.serve(ok, self.refs, 2))  # hit count off by one
        bad = copy.deepcopy(ok)
        bad[0][1]["result"]["avg_deref_size"] += 0.5
        self.assertTrue(checks.serve(bad, self.refs, 1))
        shed = copy.deepcopy(ok)
        shed[0][1]["status"] = "shed"
        self.assertTrue(checks.serve(shed, self.refs, 1))


if __name__ == "__main__":
    unittest.main()
