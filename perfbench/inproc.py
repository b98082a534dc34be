"""One in-process federation run in a fresh interpreter (a benchmark child).

Reads ``{"config": {...}, "trace": bool, "trace_path": str|null}`` as one
JSON line on stdin, builds the federation from that config alone, prints
``built`` as soon as it is ready (the parent times set-up up to that
line), runs it, and prints one JSON result line.  Run from the root of a
checkout: ``python3 perfbench/inproc.py < request.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter


class RoundTimer:
    """Wall time between ``on_round_start`` and ``on_round_end``."""

    def __init__(self) -> None:
        self.durations = []
        self._start = 0.0

    def on_round_start(self, trainer, round_index, sampled) -> None:
        self._start = perf_counter()

    def on_round_end(self, trainer, round_index, record) -> None:
        self.durations.append(perf_counter() - self._start)


def count_tasks(execution):
    """Count client tasks and their latency at the one task code path."""
    records = []  # (kind, num_examples, seconds); list.append is thread-safe
    original = execution.run_client_task

    def counted(client, task, *args, **kwargs):
        start = perf_counter()
        update = original(client, task, *args, **kwargs)
        records.append((task.kind, update.num_examples, perf_counter() - start))
        return update

    execution.run_client_task = counted
    return records


def main() -> None:
    request = json.loads(sys.stdin.readline())
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = perf_counter()
    import repro  # noqa: F401
    from repro.federated import Federation, FederationConfig
    from repro.federated import execution
    from repro.utils.serialization import history_to_dict

    import_s = perf_counter() - start

    from metrics import history_digest, layer_table, layer_values

    records = count_tasks(execution)
    tracer = None
    if request["trace"]:
        from tracer import Tracer, install_probes

        tracer = Tracer()
        install_probes(tracer)
        tracer.claim_thread()  # build spans belong to this (main) thread

    federation = Federation.from_config(FederationConfig.from_dict(request["config"]))
    print("built", flush=True)

    timer = RoundTimer()
    callbacks = [timer] if tracer is None else [tracer, timer]
    start = perf_counter()
    history = federation.run(callbacks=callbacks)
    run_s = perf_counter() - start

    result = {
        "ok": True,
        "run_s": run_s,
        "rounds_s": timer.durations,
        "tasks": len(records),
        "train_examples": sum(n for kind, n, _ in records if kind == "train"),
        "train_ms": [s * 1000.0 for kind, _, s in records if kind == "train"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": history_digest(history_to_dict(history)),
    }
    if tracer is not None:
        workers = getattr(federation.trainer.backend, "workers", 1)
        layers = layer_values(tracer, run_s, workers)
        layers["import.repro_s"] = import_s
        layers["pool.spills"] = federation.clients.spills
        result["layers"] = layers
        result["table"] = layer_table(tracer)
        if request.get("trace_path"):
            tracer.write(request["trace_path"], {"process": "inproc", "run_s": run_s})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
