"""Tests of run.py's statistics (python3 perfbench/run.py --selftest)."""

import unittest

import run


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        p, value = run.tail(samples)
        self.assertEqual(p, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_exactly_ten_beyond_at_every_size(self):
        for n in range(11, 400, 7):
            samples = [float(i) for i in range(n)]
            p, value = run.tail(samples)
            self.assertEqual(sum(1 for s in samples if s > value), 10,
                             f"n={n}")
            self.assertAlmostEqual(p, 100.0 * (n - 10) / n)

    def test_small_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(run.tail([float(i) for i in range(10)]), (100.0, 9.0))

    def test_order_does_not_matter(self):
        samples = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(run.tail(samples), run.tail(sorted(samples)))


if __name__ == "__main__":
    unittest.main()
