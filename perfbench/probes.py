"""Spans and counters at the layer boundaries, for traced runs.

A :class:`LayerProbe` installs thin timing wrappers on the public methods
of one world's objects -- the enforcement monitor, its signature deriver,
the database, its transaction manager, policy-bitmap cache and durability
manager -- plus the parser and rewriter entry points the monitor calls.
Each wrapped call records a span (run-local id, name, start, end, parent)
while the probe is enabled; disabled wrappers call straight through.
Counters (plan cache, bitmaps, indexes, transactions, WAL) are read at the
same boundaries when tracing switches on and off, so their deltas cover
exactly the traced slices.  Spans stay in memory until
:meth:`SpanRecorder.write`.

Nothing here changes what the program computes; the wrappers only time it.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_SCAN_ROWS = re.compile(r"^\s*(\S*Scan)\b.*\(rows=(\d+)")


class SpanRecorder:
    """In-memory spans ``(id, name, start_ns, end_ns, parent_id)``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total and self milliseconds.

        Self time is a span's duration minus the time its child spans
        cover.
        """
        covered: dict[int, int] = {}
        for _id, _name, start, end, parent in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0) + (end - start)
        totals: dict[str, dict] = {}
        for span_id, name, start, end, _parent in self.spans:
            entry = totals.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = end - start
            entry["count"] += 1
            entry["total_ms"] += duration / 1e6
            entry["self_ms"] += (duration - covered.get(span_id, 0)) / 1e6
        return totals

    def write(self, path: Path, side: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "side": side}
                    )
                    + "\n"
                )


class LayerProbe:
    """Wrappers and counters on one world's layer objects."""

    def __init__(self, monitor, durability=None):
        from repro.core import dml as dml_module
        from repro.core import monitor as monitor_module

        self.recorder = SpanRecorder()
        self.monitor = monitor
        self.database = monitor.database
        self.durability = durability
        self._counters = dict.fromkeys(self._read_counters(), 0)
        self._mark: dict[str, float] = {}
        self.rows_scanned = 0
        self.rows_returned = 0

        self._wrap(monitor, "execute_with_report", "core.monitor.execute")
        self._wrap(monitor, "execute_statement", "core.monitor.execute_statement")
        self._wrap(monitor, "prepare", "core.monitor.prepare", self._wrap_handle)
        self._wrap(monitor.deriver, "derive", "core.signatures.derive")
        self._wrap(monitor.admin, "apply_policy", "core.admin.apply_policy")
        self._wrap(monitor_module, "parse_statement", "sql.parse")
        self._wrap(monitor_module, "rewrite_query", "core.rewriter.rewrite")
        self._wrap(dml_module, "rewrite_query", "core.rewriter.rewrite")
        self._wrap(self.database, "prepare", "engine.plan.prepare")
        self._wrap(self.database, "execute_prepared", "engine.executor.execute", self._count_scans)
        self._wrap(self.database.policy_bitmaps, "passing_indices", "engine.plan.bitmap")
        transactions = self.database.transactions
        self._wrap(transactions, "commit", "engine.mvcc.commit")
        self._wrap(transactions, "commit_single", "engine.mvcc.commit")
        if durability is not None:
            self._wrap(durability, "log_commit", "engine.wal.append")
            self._wrap(durability, "sync", "engine.wal.sync")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                result = original(*args, **kwargs)
            else:
                with recorder.span(name):
                    result = original(*args, **kwargs)
            if after is not None:
                result = after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def _wrap_handle(self, handle, _args, _kwargs):
        """Prepared handles report through the same monitor span."""
        self._wrap(handle, "execute_with_report", "core.monitor.execute")
        return handle

    def _count_scans(self, result, args, kwargs):
        trace = kwargs.get("trace")  # the monitor passes it by keyword
        if self.recorder.enabled and trace is not None:
            prepared = args[0]
            for line in prepared.describe(annotate=trace.annotation):
                match = _SCAN_ROWS.match(line)
                if match:
                    self.rows_scanned += int(match.group(2))
            self.rows_returned += len(result)
        return result

    # -- counters ------------------------------------------------------------

    def _read_counters(self) -> dict[str, float]:
        database = self.database
        cache = self.monitor.plan_cache_info()
        bitmaps = database.policy_bitmaps.stats()
        indexes = database.indexes.stats()
        txn = database.transactions.stats_dict()
        counters = {
            "plan_cache_hits": cache["hits"],
            "plan_cache_misses": cache["misses"],
            "bitmap_built": bitmaps["built"],
            "bitmap_hits": bitmaps["hits"],
            "index_hits": indexes["hits"],
            "index_rebuilds": indexes["rebuilds"],
            "txn_conflicts": txn["conflicts"] + txn["catalog_conflicts"],
            "wal_appends": 0,
            "wal_syncs": 0,
            "wal_bytes": 0,
        }
        if self.durability is not None:
            wal = self.durability.stats()
            counters["wal_appends"] = wal["appends"]
            counters["wal_syncs"] = wal["syncs"]
            counters["wal_bytes"] = (self.durability.directory / "wal.log").stat().st_size
        return counters

    def enable(self) -> None:
        self._mark = self._read_counters()
        self.monitor.set_tracing(True)
        self.recorder.enabled = True

    def disable(self) -> None:
        if not self.recorder.enabled:
            return
        self.recorder.enabled = False
        self.monitor.set_tracing(False)
        now = self._read_counters()
        for key, value in now.items():
            self._counters[key] += value - self._mark[key]

    def summary(self) -> dict:
        """Span totals and counter deltas of every traced slice so far."""
        counters = dict(self._counters)
        counters["rows_scanned"] = self.rows_scanned
        counters["rows_returned"] = self.rows_returned
        return {"spans": self.recorder.totals(), "counters": counters}


def _mean(spans: dict, name: str, field: str = "self_ms") -> float:
    entry = spans.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry[field] / entry["count"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(server: dict, client: dict) -> dict[str, float]:
    """The per-layer metrics from a probe summary and client-side tallies.

    ``client`` holds the traced slices' tallies: ``reads``, ``writes``,
    ``read_rtt_ms`` (sum of client round trips of reads, 0 in process),
    ``response_kb`` (sum), ``checks`` (sum of complieswith calls over
    reads), ``sensed_reads`` (reads that reference ``sensed_data``),
    ``bytes_per_row`` and ``trace_overhead_pct``.
    """
    spans = server["spans"]
    counters = server["counters"]
    reads = client["reads"]
    monitor_reads = spans.get("core.monitor.execute", {"count": 0, "total_ms": 0.0})
    commits = spans.get("engine.mvcc.commit", {"count": 0})["count"]
    bitmap_lookups = counters["bitmap_built"] + counters["bitmap_hits"]
    cache_lookups = counters["plan_cache_hits"] + counters["plan_cache_misses"]
    overhead = 0.0
    if client["read_rtt_ms"] and reads and monitor_reads["count"]:
        overhead = client["read_rtt_ms"] / reads - monitor_reads["total_ms"] / monitor_reads["count"]
    return {
        "server.overhead_ms": overhead,
        "server.response_kb": _ratio(client["response_kb"], reads),
        "core.monitor.plan_cache_hit_ratio": _ratio(counters["plan_cache_hits"], cache_lookups),
        "sql.parse_ms": _mean(spans, "sql.parse", "total_ms"),
        "core.signatures.derive_ms": _mean(spans, "core.signatures.derive", "total_ms"),
        "core.rewriter.rewrite_ms": _mean(spans, "core.rewriter.rewrite", "total_ms"),
        "core.compliance.checks": _ratio(client["checks"], reads),
        "core.admin.apply_policy_ms": _mean(spans, "core.admin.apply_policy", "total_ms"),
        "engine.plan.prepare_ms": _mean(spans, "engine.plan.prepare", "total_ms"),
        "engine.plan.bitmap_builds": _ratio(counters["bitmap_built"], reads),
        "engine.plan.bitmap_hit_ratio": _ratio(counters["bitmap_hits"], bitmap_lookups),
        "engine.executor.execute_ms": _mean(spans, "engine.executor.execute"),
        "engine.executor.rows_scanned_per_row": _ratio(
            counters["rows_scanned"], counters["rows_returned"]
        ),
        "engine.index.hits": _ratio(counters["index_hits"], client["sensed_reads"]),
        "engine.index.rebuilds": _ratio(counters["index_rebuilds"], client["writes"]),
        "engine.mvcc.commit_ms": _mean(spans, "engine.mvcc.commit"),
        "engine.mvcc.conflict_ratio": _ratio(counters["txn_conflicts"], commits),
        "engine.wal.bytes_per_commit": _ratio(counters["wal_bytes"], counters["wal_appends"]),
        "engine.wal.commits_per_sync": _ratio(counters["wal_appends"], counters["wal_syncs"]),
        "engine.wal.sync_ms": _mean(spans, "engine.wal.sync", "total_ms"),
        "engine.table.bytes_per_row": client["bytes_per_row"],
        "obs.trace_overhead_pct": client["trace_overhead_pct"],
    }


#: Per-layer metric names and units, in BENCHMARK.json order.
LAYER_UNITS = {
    "server.overhead_ms": "ms",
    "server.response_kb": "KiB",
    "core.monitor.plan_cache_hit_ratio": "ratio",
    "sql.parse_ms": "ms",
    "core.signatures.derive_ms": "ms",
    "core.rewriter.rewrite_ms": "ms",
    "core.compliance.checks": "count",
    "core.admin.apply_policy_ms": "ms",
    "engine.plan.prepare_ms": "ms",
    "engine.plan.bitmap_builds": "count",
    "engine.plan.bitmap_hit_ratio": "ratio",
    "engine.executor.execute_ms": "ms",
    "engine.executor.rows_scanned_per_row": "ratio",
    "engine.index.hits": "count",
    "engine.index.rebuilds": "count",
    "engine.mvcc.commit_ms": "ms",
    "engine.mvcc.conflict_ratio": "ratio",
    "engine.wal.bytes_per_commit": "B",
    "engine.wal.commits_per_sync": "count",
    "engine.wal.sync_ms": "ms",
    "engine.table.bytes_per_row": "B",
    "obs.trace_overhead_pct": "%",
}
