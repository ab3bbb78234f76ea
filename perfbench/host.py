"""Server process for the wire workloads.

Started by the benchmark as ``python3 perfbench/host.py '<json config>'``:
builds the Experiment-1 world, optionally makes it durable (WAL attached,
hash index and ANALYZE on ``sensed_data(watch_id)``, checkpoint), starts a
:class:`repro.server.QueryServer` on a free local port and prints one JSON
line ``{"port": ..., "bytes_per_row": ...}`` when it accepts connections.

It then answers one JSON command per stdin line with one JSON line:

* ``{"cmd": "trace", "on": true|false}`` -- switch the layer probe;
* ``{"cmd": "report", "spans": path}`` -- probe summary, spans written to
  ``path``;
* ``{"cmd": "verify", "items": [...]}`` -- compare observed lookup results
  with the enforcement oracle on the server's current state.

End of input, or a signal, ends the process; it never calls
``QueryServer.stop()``, whose shutdown can stall.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

from common import PURPOSE, build_world, make_frozen_oracle, rss_mb


def _build(config: dict):
    patients, samples = config["size"]
    before = rss_mb()
    scenario = build_world(patients, samples)
    rows = patients * (samples + 2)
    bytes_per_row = max(0.0, rss_mb() - before) * 1024 * 1024 / rows
    durability = None
    if config.get("durable_dir"):
        from point_ops import ANALYZE, INDEX
        from repro.engine.wal import DurabilityManager

        database = scenario.database
        durability = DurabilityManager(database, config["durable_dir"])
        database.execute(INDEX)
        database.execute(ANALYZE)
        durability.checkpoint()
    return scenario, durability, bytes_per_row


def _verify(admin, items: list[dict]) -> dict:
    from repro.fuzz.runner import normalize_rows

    oracle = make_frozen_oracle(admin)
    mismatches = []
    for item in items:
        expected = oracle.expected(item["sql"], PURPOSE, item.get("params"))
        observed = [tuple(row) for row in item["rows"]]
        if normalize_rows(expected.rows) != normalize_rows(observed):
            mismatches.append(
                {"sql": item["sql"], "params": item.get("params"),
                 "expected": [list(row) for row in expected.rows][:5]}
            )
    return {"checked": len(items), "mismatches": mismatches}


def main() -> None:
    config = json.loads(sys.argv[1])
    from repro.server import QueryServer

    scenario, durability, bytes_per_row = _build(config)
    probe = None
    if config.get("trace"):
        from probes import LayerProbe

        probe = LayerProbe(scenario.monitor, durability)
    with contextlib.ExitStack() as stack:
        if config.get("inject_bug"):
            from repro.fuzz.inject import inject_bug

            stack.enter_context(inject_bug(config["inject_bug"]))
        server = QueryServer(scenario.monitor, workers=2).start()
        reply = {"port": server.address[1], "bytes_per_row": bytes_per_row}
        print(json.dumps(reply), flush=True)
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "trace":
                if probe is not None:
                    probe.enable() if command["on"] else probe.disable()
                reply = {"ok": True}
            elif name == "report":
                probe.disable()
                probe.recorder.write(Path(command["spans"]), "server")
                reply = probe.summary()
            elif name == "verify":
                reply = _verify(scenario.admin, command["items"])
            else:
                reply = {"error": f"unknown command {name!r}"}
            print(json.dumps(reply), flush=True)
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
