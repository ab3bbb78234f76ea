"""Client-side helpers: the server child process, traced/untraced slices and
response sizes."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

from common import ROOT, child_env
from probes import SpanRecorder


class ServerProcess:
    """A ``host.py`` child serving one world."""

    def __init__(self, config: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "host.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process ended (exit code {self.proc.wait()})")
        return json.loads(line)

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.ready["port"])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def call(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def kill(self) -> None:
        """SIGKILL the server (no clean shutdown) and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Slices:
    """Alternates traced and untraced slices of a traced run's window.

    ``switch(on)`` turns the layer probe on or off.  Operations are credited
    to the mode that was active when they started; the ratio of the two
    modes' operation rates is the tracing overhead.  With ``switch=None``
    (an untraced run) nothing is ever traced.  :meth:`span` records the
    benchmark's own calls into the program during traced slices.
    """

    def __init__(self, switch=None, recorder: "SpanRecorder | None" = None):
        self.switch = switch
        self.recorder = recorder or SpanRecorder()
        self.traced = False
        self.seconds = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self._since = time.perf_counter()
        self._lock = threading.Lock()

    def flip(self) -> None:
        if self.switch is None:
            return
        with self._lock:
            now = time.perf_counter()
            self.seconds[self.traced] += now - self._since
            self._since = now
            self.traced = not self.traced
        self.switch(self.traced)

    @contextmanager
    def span(self, name: str):
        if self.traced:
            with self.recorder.span(name):
                yield
        else:
            yield

    def done(self, traced: bool, count: int = 1) -> None:
        with self._lock:
            self.ops[traced] += count

    def exclude(self, seconds: float) -> None:
        """Take bookkeeping time (not the program's) out of the current slice."""
        with self._lock:
            self.seconds[self.traced] -= seconds

    def close(self) -> None:
        with self._lock:
            self.seconds[self.traced] += time.perf_counter() - self._since
            was_traced, self.traced = self.traced, False
        if was_traced:
            self.switch(False)

    def overhead_pct(self) -> float:
        """How much faster untraced slices ran than traced ones, in percent."""
        if not (self.ops[True] and self.ops[False]):
            return 0.0
        traced = self.ops[True] / self.seconds[True]
        untraced = self.ops[False] / self.seconds[False]
        return (untraced / traced - 1.0) * 100.0


def response_kb(result) -> float:
    """Size of a query response as the protocol encodes it."""
    payload = {
        "ok": True,
        "result": {"columns": result.columns, "rows": [list(row) for row in result.rows]},
        "cache_hit": result.cache_hit,
        "checks": result.checks,
    }
    return len(json.dumps(payload, separators=(",", ":")).encode("utf-8")) / 1024.0


def client_failures() -> tuple:
    """Exceptions that mark a client operation as failed."""
    from repro.errors import RemoteError, WireProtocolError

    return (RemoteError, WireProtocolError, OSError)


def new_tally() -> dict:
    """Client-side tallies of the traced slices, for :func:`probes.layer_metrics`."""
    return {
        "reads": 0, "writes": 0, "read_rtt_ms": 0.0, "response_kb": 0.0,
        "checks": 0, "sensed_reads": 0, "bytes_per_row": 0.0,
        "trace_overhead_pct": 0.0,
    }
