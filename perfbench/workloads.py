"""The benchmark's workloads: each one turns a seed into a run description.

A workload never reaches into the program: it only produces the plain
``FederationConfig`` payload (a JSON-safe dict) that the measured process
receives.  Each workload's ``why`` lives in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict


def nproc() -> int:
    """CPUs this process may run on (``nproc``), affinity and cpusets included."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "inproc" (one process runs the federation) | "served"
    fixed: Dict[str, Any] = field(default_factory=dict)

    def config(self, seed: int) -> Dict[str, Any]:
        """The ``FederationConfig`` payload for one seed."""
        payload = dict(self.fixed)
        payload["seed"] = int(seed)
        if payload.get("backend") == "thread":
            payload["workers"] = nproc()
        return payload


HYBRID_TRAIN = Workload(
    name="hybrid-train",
    kind="inproc",
    fixed={
        "dataset": "cifar10",
        "algorithm": "sub-fedavg-hy",
        "num_clients": 16,
        "rounds": 3,
        "sample_fraction": 0.5,
        "eval_every": 0,
        "backend": "serial",
        "data": {"partition": "shard", "n_train": 1600, "n_test": 160},
        "local": {"epochs": 2},
    },
)

CURVE_EVAL = Workload(
    name="curve-eval",
    kind="inproc",
    fixed={
        "dataset": "mnist",
        "algorithm": "sub-fedavg-un",
        "num_clients": 100,
        "rounds": 2,
        "sample_fraction": 0.1,
        "eval_every": 1,
        "backend": "thread",
        "data": {"partition": "shard", "n_train": 1000, "n_test": 200},
        "local": {"epochs": 1},
    },
)

#: Echo clients served per run; every client is sampled every round.
SERVED_CLIENTS = 300

SERVED_FLEET = Workload(
    name="served-fleet",
    kind="served",
    fixed={
        "dataset": "mnist",
        "algorithm": "fedavg",
        "num_clients": SERVED_CLIENTS,
        "rounds": 3,
        "sample_fraction": 1.0,
        "data": {
            "partition": "iid",
            "n_train": 4 * SERVED_CLIENTS,
            "n_test": 2 * SERVED_CLIENTS,
        },
        "local": {"epochs": 1},
        "systems": {"round_policy": "synchronous"},
    },
)

WORKLOADS = {w.name: w for w in (HYBRID_TRAIN, CURVE_EVAL, SERVED_FLEET)}

#: The accuracy every echo client reports for an evaluate task; a served
#: run's final accuracy must equal it exactly.
ECHO_ACCURACY = 0.5


def serial_reference(config: Dict[str, Any]) -> Dict[str, Any]:
    """The same run on the ``serial`` backend (the determinism oracle)."""
    reference = dict(config)
    reference["backend"] = "serial"
    reference["workers"] = 0
    return reference
