"""``paper_reads``: the paper's Experiment 1 traffic over the wire.

One connection replays q1-q8 and r1-r20 in passes against a read-only
10^5-row world, with the plan cache warm; the workload seed shuffles the
statement order of every pass.  Every response is fingerprinted, and after
the window the fingerprints are compared with the enforcement oracle's
results on an identically seeded world built in this process.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from common import (
    PURPOSE, SESSION_USERS, SETUP_REPEATS, SIZES, build_world, digest,
    make_frozen_oracle, paper_statements, rss_mb,
)
from wire import ServerProcess, Slices, client_failures, new_tally, response_kb


def expected_digests(patients: int, samples: int, statements) -> dict:
    """Oracle fingerprints of every statement on a fresh world."""
    scenario = build_world(patients, samples)
    oracle = make_frozen_oracle(scenario.admin)
    return {
        name: digest(oracle.expected(sql, PURPOSE).rows) for name, sql in statements
    }


def run(options, paths) -> dict:
    from repro.server import Client

    failures = client_failures()
    patients, samples = SIZES[options.size]["paper_reads"]
    statements = paper_statements(patients, samples)
    rng = random.Random(options.seed)
    config = {"size": [patients, samples], "trace": options.trace,
              "inject_bug": options.inject_bug}

    setups = []
    server = client = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                client.close()
                server.kill()
            started = time.perf_counter()
            server = ServerProcess(config)
            client = Client(*server.address)
            client.hello(SESSION_USERS[0], PURPOSE)
            for _name, sql in statements:
                client.query(sql)
            setups.append(time.perf_counter() - started)

        observed: dict[str, Counter] = {name: Counter() for name, _ in statements}
        latencies: dict[str, list[float]] = {name: [] for name, _ in statements}
        tally = new_tally()
        attempted = failed = 0
        slices = Slices(
            (lambda on: server.call(cmd="trace", on=on)) if options.trace else None
        )
        window_start = time.perf_counter()
        while time.perf_counter() - window_start < options.seconds:
            order = statements[:]
            rng.shuffle(order)
            for name, sql in order:
                traced = slices.traced
                attempted += 1
                started = time.perf_counter()
                try:
                    with slices.span("client.query"):
                        result = client.query(sql)
                except failures:
                    failed += 1
                    latencies[name].append(math.inf)
                    continue
                elapsed = time.perf_counter() - started
                latencies[name].append(elapsed)
                slices.done(traced)
                observed[name][digest(result.rows)] += 1
                if traced:
                    bookkeeping = time.perf_counter()
                    tally["reads"] += 1
                    tally["read_rtt_ms"] += elapsed * 1000.0
                    tally["response_kb"] += response_kb(result)
                    tally["checks"] += result.checks
                    tally["sensed_reads"] += "sensed_data" in sql
                    slices.exclude(time.perf_counter() - bookkeeping)
            slices.flip()
        window = time.perf_counter() - window_start
        slices.close()
        server_rss = rss_mb(server.pid)
        layers = None
        if options.trace:
            layers = server.call(cmd="report", spans=str(paths.traces / "server-spans.jsonl"))
            slices.recorder.write(paths.traces / "client-spans.jsonl", "client")
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.kill()

    expected = expected_digests(patients, samples, statements)
    wrong = sum(
        count
        for name, seen in observed.items()
        for fingerprint, count in seen.items()
        if fingerprint != expected[name]
    )
    completed = attempted - failed
    failed += wrong
    tally["bytes_per_row"] = server.ready["bytes_per_row"]
    tally["trace_overhead_pct"] = slices.overhead_pct()
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": [f"{wrong} responses differ from the oracle"] if wrong else [],
        "setups": setups,
        "window_s": window,
        "reads": latencies,
        "writes": [],
        "policy": [],
        "completed": completed,
        "rss_mb": server_rss,
        "layers": layers,
        "tally": tally,
    }
