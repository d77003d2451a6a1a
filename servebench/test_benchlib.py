"""Tests of the served-path benchmark.

    python3 servebench/test_benchlib.py            # arithmetic + smoke runs
    SERVEBENCH_SKIP_SMOKE=1 python3 servebench/test_benchlib.py

The arithmetic tests feed benchlib synthetic inputs. The smoke tests run
the real command briefly on tpcc_sync (the workload with the quickest
set-up): once normally, and once with the server killed in the middle of
a step, which must fail the checks, exit nonzero and report no metrics.
"""

import json
import os
import subprocess
import sys
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def step(**kw):
    s = dict(issued=0, attempts=0, sent=0, committed=0, user_aborted=0,
             gave_up=0, bad=0, unanswered=0, exhausted=0, shed_overload=0,
             shed_rate_limited=0, protocol_error=0, dead_connections=0,
             wall_s=1.0, drain_s=0.0, cpu_s=0.1)
    s.update(kw)
    return s


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(v, 0.50), 50)
        self.assertEqual(benchlib.percentile(v, 0.90), 90)
        self.assertEqual(benchlib.percentile(v, 0.99), 99)
        self.assertEqual(benchlib.percentile(v, 1.0), 100)
        self.assertEqual(benchlib.percentile(v, 0.0), 1)

    def test_unsorted_and_single(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(benchlib.percentile([7], 0.999), 7)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)

    def test_window_percentiles(self):
        # 8 slices of 100 samples at 10 us; one slice stalls at 5 ms, and
        # the last slice has no samples.
        at = [i * 1000 for i in range(700)]
        lat = [5_000_000 if 300 <= i < 400 else 10_000 for i in range(700)]
        self.assertEqual(benchlib.window_percentiles(at, lat, 0.9, 800_000, 8),
                         [10_000] * 3 + [5_000_000] + [10_000] * 3 + [None])

    def test_window_rates(self):
        # 1000 events/s for 1 s, the fifth slice empty.
        at = [i * 1_000_000 for i in range(1000) if not 500 <= i < 625]
        rates = benchlib.window_rates(at, 1_000_000_000, 8)
        self.assertEqual(rates, [1000.0] * 4 + [0.0] + [1000.0] * 3)

    def test_window_steal_uses_the_enclosing_samples(self):
        # Samples every 25 ms; 3 jiffies stolen between 50 and 75 ms.
        samples = [(t * 25_000_000, 0 if t < 3 else 3, 100 * t)
                   for t in range(9)]
        self.assertEqual(benchlib.window_steal(samples, 200_000_000, 4),
                         [0, 3, 0, 0])
        # A slice between two samples counts both of their neighbours.
        self.assertEqual(benchlib.window_steal(samples, 200_000_000, 16)[3:7],
                         [0, 3, 3, 0])
        raw = benchlib.STEAL.pack(*samples[3])
        self.assertEqual(benchlib.parse_steal(raw * 2), [samples[3]] * 2)

    def test_quiet_median_skips_stolen_windows(self):
        w = [(10, 0), (11, 0), (12, 0), (900, 2), (950, 1), (None, 0)]
        self.assertEqual(benchlib.quiet_median(w, 3), 11)
        # Too few quiet windows: the least-stolen ones stand in.
        self.assertEqual(benchlib.quiet_median(w, 4), 11.5)
        w = [(10, 4), (20, 1), (30, 2), (40, 3), (50, 0)]
        self.assertEqual(benchlib.quiet_median(w, 3), 30)
        with self.assertRaises(ValueError):
            benchlib.quiet_median([(None, 0)], 1)


class SessionTest(unittest.TestCase):
    def test_steal_frac_over_the_steps(self):
        b = [{"steal_jiffies": 10, "cpu_jiffies": 1000},
             {"steal_jiffies": 12, "cpu_jiffies": 1200},
             {"steal_jiffies": 14, "cpu_jiffies": 1400}]
        self.assertAlmostEqual(benchlib.steal_frac(b), 4 / 400)
        self.assertEqual(benchlib.steal_frac([b[0], b[0]]), 0.0)

    def test_room_to_repeat_reserves_the_servers_to_come(self):
        # 20 s in, a 3 s repeat, two more servers of 10 s each: 43 s.
        self.assertTrue(benchlib.room_to_repeat(20, 3, 10, 2, 44))
        self.assertFalse(benchlib.room_to_repeat(22, 3, 10, 2, 44))
        self.assertTrue(benchlib.room_to_repeat(40, 3, 10, 0, 44))

    def run_sessions(self, steals, budget_s, grows=False):
        """run.measured_sessions over fake servers (1 s set-up each) whose
        measurements report the given steal shares, in order. Returns the
        server of every measurement and the number of servers launched."""
        import run
        steals = iter(steals)

        class FakeServer:
            setup_s = 1.0

            def __init__(self, *args):
                pass

            def stop(self):
                pass

        saved = run.Server, run.measure, run.RUN_BUDGET_S
        run.Server, run.RUN_BUDGET_S = FakeServer, budget_s
        run.measure = lambda *args: dict(
            scrapes=[{}] * 3, steal_frac=next(steals),
            summary={"boundaries": [{"hwm_kb": 1}] * 3})
        try:
            done, servers = run.measured_sessions(
                dict(grows=grows), None, 1, 1.0, 3, None)
        finally:
            run.Server, run.measure, run.RUN_BUDGET_S = saved
        self.assertEqual(servers, [dict(setup_s=1.0, hwm_kb=1)]
                         * len(servers))
        return [s["server"] for s in done], len(servers)

    def test_stolen_measurements_are_followed_by_another(self):
        servers, launched = self.run_sessions(
            [0.02, 0.001, 0.0, 0.03, 0.01, 0.0005], 44)
        self.assertEqual(servers, [0, 0, 1, 2, 2, 2])
        self.assertEqual(launched, 3)
        # At most MAX_TRIES measurements per server.
        servers, _ = self.run_sessions(
            [0.02, 0.03, 0.01, 0.04, 0.05, 0.0, 0.001], 44)
        self.assertEqual(servers, [0, 0, 0, 0, 0, 1, 2])

    def test_growing_workload_measures_again_on_a_fresh_server(self):
        servers, launched = self.run_sessions(
            [0.02, 0.001, 0.0, 0.03, 0.01, 0.0005], 44, grows=True)
        self.assertEqual(servers, [0, 1, 2, 3, 4, 5])
        self.assertEqual(launched, 6)

    def test_budget_stops_the_extra_measurements(self):
        # A 1.5 s budget leaves no room for a second measurement on the
        # first server (two 1 s servers still to come), but for one on the
        # second.
        servers, _ = self.run_sessions([0.02, 0.03, 0.0005, 0.001], 1.5)
        self.assertEqual(servers, [0, 1, 1, 2])


class FailFracTest(unittest.TestCase):
    def test_counts_refusals_per_attempt(self):
        a = step(issued=1000, shed_overload=10, exhausted=5)
        b = step(issued=1000, unanswered=3, bad=1, protocol_error=1)
        self.assertAlmostEqual(benchlib.fail_frac([a, b]), 20 / 2000)

    def test_zero_when_clean(self):
        self.assertEqual(benchlib.fail_frac([step(issued=10)]), 0.0)
        self.assertEqual(benchlib.fail_frac([step()]), 0.0)

    def test_final_failures_exclude_retried_refusals(self):
        s = step(issued=100, shed_overload=40, exhausted=7, gave_up=2,
                 unanswered=1)
        self.assertEqual(benchlib.final_failures(s), 3)


class AccountingTest(unittest.TestCase):
    before = {"mv3c_server_txn_committed_total": 100,
              "mv3c_engine_commits_total": 100}

    def test_balanced(self):
        after = {"mv3c_server_txn_committed_total": 150,
                 "mv3c_engine_commits_total": 150}
        self.assertEqual(benchlib.check_accounting(
            "slo", step(committed=50), self.before, after), [])

    def test_client_server_mismatch(self):
        after = {"mv3c_server_txn_committed_total": 151,
                 "mv3c_engine_commits_total": 151}
        self.assertEqual(len(benchlib.check_accounting(
            "slo", step(committed=50), self.before, after)), 1)

    def test_server_engine_mismatch(self):
        after = {"mv3c_server_txn_committed_total": 150,
                 "mv3c_engine_commits_total": 149}
        self.assertEqual(len(benchlib.check_accounting(
            "sat", step(committed=50), self.before, after)), 1)

    def test_prom_parse_sums_label_sets(self):
        text = ("# HELP x y\n# TYPE x counter\n"
                'mv3c_engine_commits_total{engine="mv3c"} 7\n'
                'mv3c_engine_commits_total{engine="omvcc"} 5\n'
                'h_bucket{le="1"} 3\n'
                "mv3c_server_txn_committed_total 12\n")
        p = benchlib.parse_prom(text)
        self.assertEqual(p["mv3c_engine_commits_total"], 12)
        self.assertEqual(p["mv3c_server_txn_committed_total"], 12)
        self.assertNotIn("h_bucket", p)

    def test_clean_step(self):
        self.assertEqual(benchlib.check_clean(
            "slo", step(issued=5, attempts=6, sent=6)), [])
        errors = benchlib.check_clean(
            "slo", step(attempts=6, sent=5, unanswered=2, protocol_error=1))
        self.assertEqual(len(errors), 3)

    def test_durable_flag(self):
        recs = {"status": [1, 1, 2, 1], "flags": [1, 1, 0, 0]}
        self.assertEqual(len(benchlib.check_durable(recs)), 1)
        recs["flags"][3] = 1
        self.assertEqual(benchlib.check_durable(recs), [])

    def test_generator_validity(self):
        ok = step(cpu_s=0.5, wall_s=1.0, drain_s=0.0)
        self.assertEqual(benchlib.check_generator("slo", ok, 60_000, 5_000),
                         [])
        busy = step(cpu_s=0.95, wall_s=1.0)
        self.assertEqual(len(benchlib.check_generator("sat", busy)), 1)
        late = benchlib.check_generator("slo", ok, 60_000, 30_000)
        self.assertEqual(len(late), 1)

    def test_record_round_trip(self):
        raw = benchlib.RECORD.pack(5, 1000, 20, 3, 2, 1, 1, 1)
        recs = benchlib.parse_records(raw * 2)
        self.assertEqual(recs["lat_ns"], (1000, 1000))
        self.assertEqual(benchlib.committed_column(recs, "rounds"), [2, 2])
        self.assertEqual(benchlib.parse_records(b"")["lat_ns"], ())


@unittest.skipIf(os.environ.get("SERVEBENCH_SKIP_SMOKE"), "smoke skipped")
class SmokeTest(unittest.TestCase):
    def run_bench(self, *extra):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", "tpcc_sync", "--seed", "1", "--seconds", "1.5"]
            + list(extra), capture_output=True, text=True, timeout=900)

    def test_short_run_reports_every_metric(self):
        p = self.run_bench("--trace", "0")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            names = {m["name"] for m in json.load(f)["end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_killed_server_fails_the_run(self):
        p = self.run_bench("--fault", "kill-server")
        self.assertNotEqual(p.returncode, 0)
        lines = p.stdout.strip().splitlines()
        if lines:  # a result line, if any, carries no metrics
            result = json.loads(lines[-1])
            self.assertFalse(result["correct"])
            self.assertEqual(result["metrics"], {})


if __name__ == "__main__":
    unittest.main()
