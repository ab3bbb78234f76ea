"""``policy_churn``: reads that each follow a mutation, in process.

Policy administration has no wire verb, so this workload drives the
library API from one thread against a durable 10^4-row world with a hash
index and ANALYZE on ``sensed_data(watch_id)``.  Every step applies one
per-patient ``sensed_data`` policy with ``apply_policy``, inserts four
samples, corrects one sample with an ``UPDATE`` and then runs q1-q8.  The workload seed picks the patients, the policies, the written
values and so the order of the churn.  The reads of the first and of the
last step are compared with the enforcement oracle.
"""

from __future__ import annotations

import math
import random
import time

from common import (
    PURPOSE, SELECTIVITY, SESSION_USERS, SETUP_REPEATS, SIZES, ad_hoc_statements,
    build_world, digest, disk_mb, make_frozen_oracle, rss_mb,
)
from point_ops import ANALYZE, INDEX, INSERT, POSITIONS
from wire import Slices, new_tally

USER = SESSION_USERS[0]
CORRECTION = "update sensed_data set beats = {} where watch_id = '{}' and timestamp = {}"


class Churn:
    """One world and the closed loop that mutates and reads it."""

    def __init__(self, scenario, seed: int, size, slices: Slices):
        from repro.errors import ReproError

        self.scenario = scenario
        self.slices = slices
        self.patients, self.samples = size
        self.rng = random.Random(seed)
        self.statements = ad_hoc_statements()
        self.failures = ReproError
        self.step = 0
        self.attempted = self.failed = 0
        self.reads: dict[str, list[float]] = {name: [] for name, _ in self.statements}
        self.writes: list[float] = []
        self.policy: list[float] = []
        self.results: dict[str, tuple] = {}
        self.wrong: list[str] = []
        self.tally = new_tally()

    def _op(self, samples: list, name: str, action):
        self.attempted += 1
        started = time.perf_counter()
        try:
            with self.slices.span(name):
                result = action()
        except self.failures:
            self.failed += 1
            samples.append(math.inf)
            return None
        samples.append(time.perf_counter() - started)
        return result

    def _policy(self):
        from repro.core import Policy
        from repro.workload.policies import scattered_policy

        rng = self.rng
        watch = f"watch{rng.randrange(self.patients)}"
        rules = rng.randint(1, 3)
        base = scattered_policy("sensed_data", rng.random() >= SELECTIVITY, rules, rng.randrange(rules))
        policy = Policy("sensed_data", base.rules, tuple_selector=("watch_id", watch))
        return lambda: self.scenario.admin.apply_policy(policy)

    def run_step(self) -> None:
        """One mutation burst followed by q1-q8."""
        rng = self.rng
        monitor = self.scenario.monitor
        traced = self.slices.traced
        self.step += 1
        completed_before = self.attempted - self.failed

        self._op(self.policy, "client.policy", self._policy())
        for index in range(4):
            row = (
                f"watch{rng.randrange(self.patients)}",
                self.samples + 1 + 4 * self.step + index,
                round(rng.uniform(35.0, 41.0), 2),
                rng.choice(POSITIONS),
                rng.randint(50, 140),
            )
            sql = INSERT.format(*row)
            affected = self._op(self.writes, "client.write", lambda: monitor.execute_statement(sql, PURPOSE, USER))
            if affected is not None and affected != 1:
                self.wrong.append(f"insert {row} affected {affected} rows")
        correction = CORRECTION.format(
            rng.randint(50, 140), f"watch{rng.randrange(self.patients)}",
            1 + rng.randrange(self.samples),
        )
        self._op(self.writes, "client.write", lambda: monitor.execute_statement(correction, PURPOSE, USER))
        if traced:
            self.tally["writes"] += 5

        self.results = {}
        for name, sql in self.statements:
            report = self._op(self.reads[name], "client.read", lambda: monitor.execute_with_report(sql, PURPOSE, USER))
            if report is None:
                continue
            self.results[name] = digest(report.result.rows)
            if traced:
                self.tally["reads"] += 1
                self.tally["checks"] += report.compliance_checks
                self.tally["sensed_reads"] += "sensed_data" in sql
        self.slices.done(traced, self.attempted - self.failed - completed_before)

    def snapshot(self) -> tuple:
        """This step's reads and an oracle over the state they ran against."""
        return self.step, self.results, make_frozen_oracle(self.scenario.admin)

    def check(self, step: int, results: dict, oracle) -> None:
        for name, sql in self.statements:
            if name in results and results[name] != digest(oracle.expected(sql, PURPOSE).rows):
                self.wrong.append(f"step {step} {name}: result differs from the oracle")


def run(options, paths) -> dict:
    from repro.engine.wal import DurabilityManager

    size = SIZES[options.size]["policy_churn"]
    statements = ad_hoc_statements()
    setups = []
    bytes_per_row = 0.0
    scenario = durability = None
    for attempt in range(SETUP_REPEATS):
        if durability is not None:
            durability.close()
        scenario = durability = None  # free the previous world before the next
        started = time.perf_counter()
        before = rss_mb()
        scenario = build_world(*size)
        if attempt == 0:
            rows = size[0] * (size[1] + 2)
            bytes_per_row = max(0.0, rss_mb() - before) * 1024 * 1024 / rows
        directory = paths.scratch / f"db{attempt}"
        durability = DurabilityManager(scenario.database, directory)
        scenario.database.execute(INDEX)
        scenario.database.execute(ANALYZE)
        durability.checkpoint()
        for _name, sql in statements:
            scenario.monitor.execute(sql, PURPOSE, USER)
        setups.append(time.perf_counter() - started)

    try:
        probe = None
        if options.trace:
            from probes import LayerProbe

            probe = LayerProbe(scenario.monitor, durability)
        slices = Slices(
            (lambda on: probe.enable() if on else probe.disable()) if probe else None,
            probe.recorder if probe else None,
        )
        churn = Churn(scenario, options.seed, size, slices)
        window = 0.0
        while window < options.seconds:
            started = time.perf_counter()
            churn.run_step()
            window += time.perf_counter() - started
            if churn.step == 1:
                paused = time.perf_counter()
                first = churn.snapshot()
                slices.exclude(time.perf_counter() - paused)
            slices.flip()
        slices.close()
        process_rss = rss_mb()
        layers = None
        if probe is not None:
            layers = probe.summary()
            probe.recorder.write(paths.traces / "spans.jsonl", "in-process")
        # Checked after the window and the RSS reading.
        churn.check(*first)
        churn.check(*churn.snapshot())
        disk = disk_mb(directory)
    finally:
        durability.close()

    tally = churn.tally
    tally["bytes_per_row"] = bytes_per_row
    tally["trace_overhead_pct"] = slices.overhead_pct()
    return {
        "attempted": churn.attempted,
        "failed": churn.failed + len(churn.wrong),
        "messages": churn.wrong[:10],
        "setups": setups,
        "window_s": window,
        "reads": churn.reads,
        "writes": churn.writes,
        "policy": churn.policy,
        "completed": churn.attempted - churn.failed,
        "rss_mb": process_rss,
        "disk_mb": disk,
        "layers": layers,
        "tally": tally,
    }
