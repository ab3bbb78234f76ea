"""Shared pieces of the benchmark: the Experiment-1 world, statement texts,
latency statistics, result digests and an oracle for frozen worlds.

Every workload builds the same world the repository's Experiment 1 uses:
the patients schema filled from data seed 20150311, scattered policies at
selectivity 0.4 from policy seed 411595, queries run under purpose ``p6``.
Only the workload seed (the ``--seed`` argument) varies between runs.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

#: Root of the checkout (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch area for durable databases and trace files (git-ignored).
WORK_DIR = ROOT / ".perfbench"

DATA_SEED = 20150311
POLICY_SEED = 411595
SELECTIVITY = 0.4
PURPOSE = "p6"
#: Generator seed of the r1-r20 batch: the repository's Experiment-1
#: default, fixed so that every workload seed runs the same statement mix.
RANDOM_QUERY_SEED = 2015
#: Users the benchmark sessions authenticate as (granted ``p6``).
SESSION_USERS = ("nurse0", "nurse1")

#: ``(patients, samples per patient)`` per workload and size.  ``tiny`` is
#: for the self-test only.
SIZES = {
    "full": {
        "paper_reads": (100, 1000),
        "point_ops": (100, 1000),
        "policy_churn": (100, 100),
    },
    "tiny": {
        "paper_reads": (10, 20),
        "point_ops": (10, 20),
        "policy_churn": (10, 10),
    },
}

#: How many times each run performs its whole set-up; ``setup_s`` is the
#: median.
SETUP_REPEATS = 3


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src`` tree."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env() -> dict:
    """Environment for child processes: the parent's plus ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def inherited_modes() -> list[str]:
    """``REPRO_*`` variables that would change the measured configuration."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


# -- world -------------------------------------------------------------------


def build_world(patients: int, samples: int):
    """The Experiment-1 scenario with its policies and session grants."""
    from repro.workload import apply_experiment_policies, build_patients_scenario

    scenario = build_patients_scenario(patients, samples, seed=DATA_SEED)
    apply_experiment_policies(scenario, SELECTIVITY, seed=POLICY_SEED)
    for user in SESSION_USERS:
        scenario.admin.grant_purpose(user, PURPOSE)
    return scenario


def paper_statements(patients: int, samples: int) -> list[tuple[str, str]]:
    """``(name, sql)`` of q1-q8 followed by r1-r20."""
    from repro.workload import AD_HOC_QUERIES
    from repro.workload.randgen import random_queries

    queries = list(AD_HOC_QUERIES) + list(
        random_queries(RANDOM_QUERY_SEED, patients, samples)
    )
    return [(query.name, query.sql) for query in queries]


def ad_hoc_statements() -> list[tuple[str, str]]:
    """``(name, sql)`` of q1-q8."""
    from repro.workload import AD_HOC_QUERIES

    return [(query.name, query.sql) for query in AD_HOC_QUERIES]


# -- results -----------------------------------------------------------------

_MASK = (1 << 64) - 1


def digest(rows) -> tuple[int, int]:
    """Order-insensitive fingerprint of a result's rows (count, hash sum).

    Only comparable within one process: string hashes are salted per
    interpreter.
    """
    return len(rows), sum(map(hash, rows)) & _MASK


def make_frozen_oracle(admin):
    """An :class:`EnforcementOracle` over a snapshot of the world.

    The stock oracle copies every protected table and filters a fresh
    shadow table for every call and every combination of action masks.
    This one copies the tables once, when it is made, and answers every
    later call for the world as it was then.  A row's verdict is computed
    once per distinct policy mask, and shadow tables are shared by every
    mask combination that admits the same policies.  The expected results
    are the stock oracle's; checking dozens of statements at 10^5 rows
    becomes affordable, and a check can run after the world has moved on.
    """
    from repro.core.admin import POLICY_COLUMN
    from repro.engine import Database
    from repro.fuzz.oracle import EnforcementOracle
    from repro.sql import parse_statement

    class FrozenOracle(EnforcementOracle):
        def __init__(self, admin):
            super().__init__(admin)
            self._scratch = Database("oracle")
            self._shadows = {}
            self._policies = {}
            for name in admin.target_tables():
                source = admin.database.table(name)
                self._copy_table(self._scratch, source.schema, name, source.rows)

        def _shadow_for(self, scratch, table_signature, purpose):
            table = table_signature.table
            layout = self.admin.layout(table)
            masks = [
                layout.signature_mask(action.columns, action.action_type, purpose)
                for action in table_signature.actions
            ]
            copy = scratch.table(table)
            policy_index = copy.schema.column_index(POLICY_COLUMN)
            if table not in self._policies:
                self._policies[table] = {row[policy_index] for row in copy.rows}
            admitted = frozenset(
                policy for policy in self._policies[table] if self._admits(policy, masks)
            )
            name = self._shadows.get((table, admitted))
            if name is None:
                rows = [row for row in copy.rows if row[policy_index] in admitted]
                name = f"__oracle_{table}_{len(self._shadows)}"
                self._copy_table(scratch, copy.schema, name, rows)
                self._shadows[(table, admitted)] = name
            return name

        def expected(self, query, purpose, params=None):
            statement = parse_statement(query) if isinstance(query, str) else query
            self.admin.purposes.get(purpose)
            transformed = self._transform_statement(statement, purpose, self._scratch)
            return self._scratch.prepare(transformed).execute(params)

    return FrozenOracle(admin)


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_ok(count: int, fraction: float) -> bool:
    """Whether ``count`` samples leave at least 10 beyond the percentile."""
    return count - max(1, math.ceil(fraction * count)) >= 10


PERCENTILES = {"p50": 0.50, "p95": 0.95}


def latency_metrics(prefix: str, latencies: list[float], labels=("p50", "p95")) -> dict:
    """``<prefix>_<label>_ms`` for each label, where sampled well enough.

    ``latencies`` are seconds; a failed operation is ``math.inf``, so it
    counts as beyond every limit.
    """
    metrics = {}
    for label in labels:
        fraction = PERCENTILES[label]
        if latencies and tail_ok(len(latencies), fraction):
            metrics[f"{prefix}_{label}_ms"] = percentile(latencies, fraction) * 1000.0
    return metrics


def statement_median(latencies: dict[str, list[float]]) -> "float | None":
    """Median over statements of each statement's median latency, in seconds.

    ``latencies`` maps each statement to its latencies.  When a mix holds
    statements whose latencies differ many times over, the median of all
    executions falls between two statements' spreads, on the tail of each,
    and moves with every shift in the host's speed far more than any
    statement's own median does.  ``None`` with fewer than ten executions
    beyond the median.
    """
    if not tail_ok(sum(len(values) for values in latencies.values()), 0.50):
        return None
    return statistics.median(
        statistics.median(values) for values in latencies.values() if values
    )


def rss_mb(pid: int | str = "self") -> float:
    """Resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")


def disk_mb(directory: Path) -> float:
    """Snapshot plus WAL bytes of a durable database directory."""
    total = 0
    for name in ("snapshot.json", "wal.log"):
        path = directory / name
        if path.exists():
            total += path.stat().st_size
    return total / (1024.0 * 1024.0)
