"""``point_ops``: short application statements over the wire.

Two sessions, each a closed loop on its own connection, run cycles of
three small-table key lookups, one ``sensed_data`` lookup by
``(watch_id, timestamp)``, one autocommit ``INSERT`` of a new sample and
one ``BEGIN``/``UPDATE users``/``COMMIT`` on keys no other session writes,
against a durable 10^5-row world (WAL with fsync on every commit, hash
index and ANALYZE on ``sensed_data(watch_id)``).  The workload seed picks
the lookup keys and the written values.

Checks: each session reads back its own last committed update; inserted
samples carry no policy, so a lookup of one must come back empty; every
lookup has the shape its key implies; after the window the server
compares the observed lookups with the enforcement oracle.  Then the
server is SIGKILLed, the database reopened with ``open_database`` and
every acknowledged insert and update must be there.
"""

from __future__ import annotations

import math
import random
import threading
import time
import traceback

from common import (
    PURPOSE, SESSION_USERS, SETUP_REPEATS, SIZES, disk_mb, rss_mb,
)
from wire import ServerProcess, Slices, client_failures, new_tally, response_kb

USERS = "select user_id, watch_id, nutritional_profile_id from users where user_id = ?"
PROFILES = (
    "select profile_id, food_intolerances, food_preferences, diet_type "
    "from nutritional_profiles where profile_id = ?"
)
SENSED = (
    "select watch_id, timestamp, temperature, position, beats "
    "from sensed_data where watch_id = ? and timestamp = ?"
)
VISIBLE_USERS = "select user_id from users"
INSERT = (
    "insert into sensed_data (watch_id, timestamp, temperature, position, beats) "
    "values ('{}', {}, {}, '{}', {})"
)
UPDATE = "update users set nutritional_profile_id = {} where user_id = '{}'"
INDEX = "create index sensed_watch on sensed_data (watch_id) using hash"
ANALYZE = "analyze sensed_data"
POSITIONS = ("room", "garden", "dining_hall", "gym", "infirmary", "lounge")


class Ledger:
    """What the sessions saw and what the server acknowledged."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inserts: list[tuple] = []
        self.updates: dict[str, int] = {}
        self.written: dict[str, set] = {}
        self.lookups: dict[tuple, list] = {}
        self.wrong: list[str] = []

    def mismatch(self, message: str) -> None:
        with self.lock:
            self.wrong.append(message)

    def saw(self, sql: str, params: list, rows: list) -> None:
        """Remember the first result per lookup; later ones must agree."""
        key = (sql, tuple(params))
        with self.lock:
            first = self.lookups.setdefault(key, rows)
        if sorted(first) != sorted(rows):
            self.mismatch(f"lookup {params} changed: {first} then {rows}")


class Session:
    """One connection's closed loop."""

    def __init__(self, index: int, address, seed: int, size, ledger: Ledger):
        from repro.server import Client

        self.index = index
        self.patients, self.samples = size
        self.ledger = ledger
        self.rng = random.Random(f"{seed}:{index}")
        self.client = Client(*address)
        self.client.hello(SESSION_USERS[index], PURPOSE)
        self.failures = client_failures()
        self.cycle = 0
        self.last_insert = None
        self.last_update = None
        self.reads: dict[str, list[float]] = {}
        self.writes: list[float] = []
        self.attempted = self.failed = 0
        self.tally = new_tally()

    # -- set-up -----------------------------------------------------------------

    def warm_up(self) -> None:
        """First execution of every statement; also picks this session's keys."""
        visible = sorted(row[0] for row in self.client.query(VISIBLE_USERS).rows)
        self.own = visible[self.index :: len(SESSION_USERS)]
        if not self.own:
            raise RuntimeError("no policy-visible user left for this session to update")
        self.users = self.client.prepare(USERS)
        self.profiles = self.client.prepare(PROFILES)
        self.sensed = self.client.prepare(SENSED)
        self.client.execute_prepared(self.users, [self.own[0]])
        self.client.execute_prepared(self.profiles, [0])
        self.client.execute_prepared(self.sensed, ["watch0", 1])
        self._insert()
        self._update()

    # -- statements ---------------------------------------------------------------

    def _insert(self) -> None:
        rng = self.rng
        row = (
            f"watch{rng.randrange(self.patients)}",
            self.samples + 1 + len(SESSION_USERS) * self.cycle + self.index,
            round(rng.uniform(35.0, 41.0), 2),
            rng.choice(POSITIONS),
            rng.randint(50, 140),
        )
        affected = self.client.execute(INSERT.format(*row))
        if affected != 1:
            self.ledger.mismatch(f"insert {row} affected {affected} rows")
        self.last_insert = row
        with self.ledger.lock:
            self.ledger.inserts.append(row)

    def _update(self) -> None:
        user = self.rng.choice(self.own)
        value = self.rng.randrange(1000, 1_000_000)
        with self.ledger.lock:
            self.ledger.written.setdefault(user, set()).add(value)
        self.client.begin()
        try:
            affected = self.client.execute(UPDATE.format(value, user))
        except BaseException:
            self._rollback()
            raise
        self.client.commit()
        if affected != 1:
            self.ledger.mismatch(f"update of {user} affected {affected} rows")
        self.last_update = (user, value)
        with self.ledger.lock:
            self.ledger.updates[user] = value

    def _rollback(self) -> None:
        try:
            self.client.rollback()
        except self.failures:
            pass

    def _read_users(self, user: str, exact: "int | None"):
        result = self.client.execute_prepared(self.users, [user])
        rows = result.rows
        number = int(user[len("user"):])
        with self.ledger.lock:
            allowed = {number} | self.ledger.written.get(user, set())
        if exact is not None and rows != [(user, f"watch{number}", exact)]:
            self.ledger.mismatch(f"read-back of {user}: {rows}, expected {exact}")
        elif len(rows) > 1 or any(
            row[:2] != (user, f"watch{number}") or row[2] not in allowed for row in rows
        ):
            self.ledger.mismatch(f"users lookup {user}: {rows}")
        if user not in self.ledger.written:
            self.ledger.saw(USERS, [user], rows)
        return result

    def _read_profiles(self):
        key = self.rng.randrange(self.patients)
        result = self.client.execute_prepared(self.profiles, [key])
        rows = result.rows
        if len(rows) > 1 or any(row[0] != key for row in rows):
            self.ledger.mismatch(f"profiles lookup {key}: {rows}")
        self.ledger.saw(PROFILES, [key], rows)
        return result

    def _read_sensed(self):
        if self.cycle % 2:
            # A new sample has a NULL policy: no purpose may see it.
            watch, timestamp = self.last_insert[:2]
            result = self.client.execute_prepared(self.sensed, [watch, timestamp])
            if result.rows:
                self.ledger.mismatch(f"policy-less sample visible: {result.rows}")
            return result
        watch = f"watch{self.rng.randrange(self.patients)}"
        timestamp = 1 + self.rng.randrange(self.samples)
        result = self.client.execute_prepared(self.sensed, [watch, timestamp])
        rows = result.rows
        if len(rows) > 1 or any(row[:2] != (watch, timestamp) for row in rows):
            self.ledger.mismatch(f"sensed lookup {(watch, timestamp)}: {rows}")
        self.ledger.saw(SENSED, [watch, timestamp], rows)
        return result

    # -- the loop ---------------------------------------------------------------------

    def _op(self, kind: str, action, slices: Slices, sensed: bool = False, label: str = "") -> None:
        traced = slices.traced
        self.attempted += 1
        started = time.perf_counter()
        samples = self.reads.setdefault(label, []) if kind == "read" else self.writes
        try:
            with slices.span(f"client.{kind}"):
                result = action()
        except self.failures:
            self.failed += 1
            samples.append(math.inf)
            return
        elapsed = time.perf_counter() - started
        samples.append(elapsed)
        slices.done(traced)
        if traced:
            if kind == "read":
                self.tally["reads"] += 1
                self.tally["read_rtt_ms"] += elapsed * 1000.0
                self.tally["sensed_reads"] += sensed
                self.tally["checks"] += result.checks
                bookkeeping = time.perf_counter()
                self.tally["response_kb"] += response_kb(result)
                slices.exclude(time.perf_counter() - bookkeeping)
            else:
                self.tally["writes"] += 1

    def run(self, barrier: threading.Barrier, go: list, slices: Slices) -> None:
        """Cycle until ``go[0]`` turns false; cycles start in step (see ``run``)."""
        try:
            while True:
                barrier.wait()
                if not go[0]:
                    return
                self.cycle += 1
                own, value = self.last_update
                other = f"user{self.rng.randrange(self.patients)}"
                self._op("write", self._insert, slices)
                self._op("read", lambda: self._read_users(own, value), slices, label="own_user")
                self._op("read", self._read_profiles, slices, label="profile")
                self._op("read", lambda: self._read_users(other, None), slices, label="other_user")
                self._op("read", self._read_sensed, slices, sensed=True, label="sample")
                self._op("write", self._update, slices)
        except Exception:  # a benchmark bug must not pass silently
            barrier.abort()
            self.ledger.mismatch(f"session {self.index} stopped:\n{traceback.format_exc()}")

    def close(self) -> None:
        self.client.close()


def _recover(directory, ledger: Ledger, probe_user: str) -> tuple[float, list[str]]:
    """Reopen after the crash; time until an enforced read answers."""
    from repro.core import AccessControlManager, EnforcementMonitor
    from repro.engine.wal import open_database

    started = time.perf_counter()
    database, durability = open_database(directory)
    monitor = EnforcementMonitor(AccessControlManager.from_existing(database))
    monitor.execute(USERS, PURPOSE, params=[probe_user])
    recovery = time.perf_counter() - started

    missing = []
    sensed = {row[:2]: row[:5] for row in database.table("sensed_data").rows}
    for row in ledger.inserts:
        if sensed.get(row[:2]) != row:
            missing.append(f"acknowledged insert {row} lost: {sensed.get(row[:2])}")
    users = {row[0]: row[2] for row in database.table("users").rows}
    for user, value in ledger.updates.items():
        if users.get(user) != value:
            missing.append(f"acknowledged update {user}={value} lost: {users.get(user)}")
    durability.close()
    return recovery, missing


def run(options, paths) -> dict:
    size = SIZES[options.size]["point_ops"]
    setups = []
    server = None
    sessions: list[Session] = []
    try:
        for attempt in range(SETUP_REPEATS):
            for session in sessions:
                session.close()
            if server is not None:
                server.kill()
            directory = paths.scratch / f"db{attempt}"
            ledger = Ledger()
            started = time.perf_counter()
            server = ServerProcess(
                {"size": list(size), "durable_dir": str(directory), "trace": options.trace}
            )
            sessions = [
                Session(index, server.address, options.seed, size, ledger)
                for index in range(len(SESSION_USERS))
            ]
            for session in sessions:
                session.warm_up()
            setups.append(time.perf_counter() - started)

        slices = Slices(
            (lambda on: server.call(cmd="trace", on=on)) if options.trace else None
        )
        # Both sessions start every cycle together.  Left to drift, the pair
        # settles either in phase or in a convoy where each session's small
        # lookups wait behind the other's sensed_data scan; one run in
        # fifteen fell into the convoy and its median read took 33 ms, not 1.4.
        go = [True]
        stop = threading.Event()
        barrier = threading.Barrier(
            len(sessions), action=lambda: go.__setitem__(0, not stop.is_set())
        )
        threads = [
            threading.Thread(target=session.run, args=(barrier, go, slices))
            for session in sessions
        ]
        window_start = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = window_start + options.seconds
        while time.perf_counter() < deadline:
            time.sleep(min(1.0, max(0.0, deadline - time.perf_counter())))
            slices.flip()
        stop.set()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - window_start
        slices.close()
        server_rss = rss_mb(server.pid)
        layers = None
        if options.trace:
            layers = server.call(cmd="report", spans=str(paths.traces / "server-spans.jsonl"))
            slices.recorder.write(paths.traces / "client-spans.jsonl", "client")
        written = set(ledger.written)
        items = [
            {"sql": sql, "params": list(params), "rows": rows}
            for (sql, params), rows in ledger.lookups.items()
            if not (sql == USERS and params[0] in written)
        ]
        verdict = server.call(cmd="verify", items=items)
        disk = disk_mb(directory)
    finally:
        for session in sessions:
            session.close()
        if server is not None:
            server.kill()

    wrong = list(ledger.wrong)
    wrong += [f"oracle disagrees: {item}" for item in verdict["mismatches"]]
    recovery, lost = _recover(directory, ledger, sessions[0].own[0])
    wrong += lost

    attempted = sum(session.attempted for session in sessions)
    failed = sum(session.failed for session in sessions)
    tally = new_tally()
    for session in sessions:
        for key in ("reads", "writes", "read_rtt_ms", "response_kb", "checks", "sensed_reads"):
            tally[key] += session.tally[key]
    tally["bytes_per_row"] = server.ready["bytes_per_row"]
    tally["trace_overhead_pct"] = slices.overhead_pct()
    return {
        "attempted": attempted,
        "failed": failed + len(wrong),
        "messages": wrong[:10],
        "setups": setups,
        "window_s": window,
        "reads": {
            label: [value for session in sessions for value in session.reads.get(label, [])]
            for label in sessions[0].reads
        },
        "writes": [value for session in sessions for value in session.writes],
        "policy": [],
        "completed": attempted - failed,
        "rss_mb": server_rss,
        "disk_mb": disk,
        "recovery_s": recovery,
        "layers": layers,
        "tally": tally,
    }
