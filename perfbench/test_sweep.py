"""Tests of sweep.py's comparison. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import sweep


def record(commit, value, seconds=25):
    return {
        "schema": sweep.SCHEMA, "workload": "cold_solve", "seed": 1,
        "seconds": seconds, "trace": False,
        "stamp": {"nproc": "2", "cpu_model": "x", "commit": commit},
        "correct": True, "attempted": 14, "failed": 0,
        "metrics": {"time_to_solution_s": {"value": value, "unit": "s", "samples": 14}},
        "detail": {}, "failures": [],
    }


class CompareTest(unittest.TestCase):
    def test_spread_uses_python_quartiles(self):
        # statistics.quantiles(1..10, n=4) gives 2.75 and 8.25; median 5.5.
        self.assertAlmostEqual(sweep.spread(list(range(1, 11))), 1.0)

    def test_compares_across_commits(self):
        base = [record("aaa", 1.0), record("aaa", 1.2), record("aaa", 1.1)]
        lines = sweep.compare(base, [record("bbb", 1.21)])
        row = lines[1].split()
        self.assertEqual(row[:3], ["cold_solve", "time_to_solution_s", "s"])
        self.assertEqual(row[3], "1.1")
        self.assertEqual(row[-1], "+0.100")

    def test_refuses_another_machine(self):
        other = record("bbb", 1.1)
        other["stamp"]["nproc"] = "4"
        with self.assertRaises(ValueError):
            sweep.compare([record("aaa", 1.0)], [other])

    def test_refuses_another_run_length(self):
        with self.assertRaises(ValueError):
            sweep.compare([record("aaa", 1.0)], [record("aaa", 1.0, seconds=20)])


if __name__ == "__main__":
    unittest.main()
