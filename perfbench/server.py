"""A served federation in a fresh interpreter (the served-fleet child).

Reads ``{"config": {...}, "trace": bool, "trace_path": str|null}`` as one
JSON line on stdin, starts a ``FederationServer`` on an ephemeral
localhost port and prints ``ready <port>`` once it accepts connections.
After the run it waits for a ``stop`` line (sent once every client
session has seen ``done``), shuts the server down and prints one JSON
result line.  Run from the root of a checkout:
``python3 perfbench/server.py < request.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from inproc import RoundTimer


class RunClock:
    """Marks the start of the served run (``on_run_start``)."""

    def __init__(self) -> None:
        self.started = None

    def on_run_start(self, trainer) -> None:
        self.started = perf_counter()


def main() -> None:
    request = json.loads(sys.stdin.readline())
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = perf_counter()
    import repro  # noqa: F401
    from repro.federated import FederationConfig
    from repro.serving import FederationServer

    import_s = perf_counter() - start

    from metrics import layer_table, layer_values

    tracer = None
    if request["trace"]:
        from tracer import Tracer, install_probes

        tracer = Tracer()
        install_probes(tracer)
        tracer.claim_thread()

    config = FederationConfig.from_dict(request["config"])
    clock = RunClock()
    timer = RoundTimer()
    callbacks = [clock, timer] if tracer is None else [tracer, clock, timer]
    server = FederationServer(config, callbacks=callbacks)
    server.start()
    print(f"ready {server.port}", flush=True)

    result = {"ok": True}
    try:
        history = server.wait()  # the parent's watchdog bounds this
        result.update(
            run_s=perf_counter() - clock.started,
            rounds_s=timer.durations,
            final_accuracy=history.final_accuracy,
        )
    except RuntimeError as exc:  # the served run failed
        result.update(ok=False, error=repr(exc))
    sys.stdin.readline()  # the load generator saw ``done`` on every session
    result["tasks_completed"] = server.hub.tasks_completed
    server.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and result["ok"]:
        layers = layer_values(tracer, result["run_s"], 1)
        layers["import.repro_s"] = import_s
        layers["pool.spills"] = 0  # the server builds no clients
        result["layers"] = layers
        result["table"] = layer_table(tracer)
        if request.get("trace_path"):
            tracer.write(request["trace_path"], {"process": "server",
                                                 "run_s": result["run_s"]})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
