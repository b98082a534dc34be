"""Metric catalogue, statistics helpers and the per-layer table.

The catalogue (names, units, directions and bounds) is read from
``BENCHMARK.json`` at the repository root, its single source.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Dict, List, Sequence

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")
with open(SPEC_PATH) as _handle:
    SPEC = json.load(_handle)

#: ``{"name", "unit", "better", "bound"}`` rows reported by untraced runs.
END_TO_END: List[Dict] = SPEC["end_to_end"]
#: ``{"name", "unit", "better"}`` rows reported by traced runs.
PER_LAYER: List[Dict] = SPEC["per_layer"]
UNITS: Dict[str, str] = {row["name"]: row["unit"] for row in END_TO_END + PER_LAYER}

OP_KINDS = ("elementwise", "reduce", "contract", "movement", "other")
HTTP_ENDPOINTS = ("register", "work_global", "work_cached", "work_wait", "result")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``q`` in 0..100).

    It weights every order statistic rather than picking one, so a tail
    percentile of the hundred-odd training tasks an in-process run sees
    moves about half as much from run to run as the nearest-rank one.
    """
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    from scipy.stats.mstats import hdquantiles  # only the parent computes these

    return float(hdquantiles(values, q / 100.0)[0])


def history_digest(history_dict: Dict) -> str:
    """Content hash of a run's round records and final per-client accuracies."""
    payload = {
        "rounds": history_dict["rounds"],
        "final_per_client_accuracy": history_dict["final_per_client_accuracy"],
        "final_accuracy": history_dict["final_accuracy"],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Per-layer values from a tracer
# ----------------------------------------------------------------------
def layer_values(tracer, run_s: float, workers: int) -> Dict[str, float]:
    """The per-layer metrics one traced process can see."""
    from repro.engine.ops import OPS

    totals = tracer.totals()
    counters = tracer.counters

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return int(totals.get(name, (0, 0.0, 0.0))[0])

    values: Dict[str, float] = {
        "data.load_dataset_s": seconds("data.load_dataset"),
        "data.partition_s": seconds("data.partition"),
        "federated.build_s": seconds("federated.build"),
        "data.batch_wait_s": seconds("data.batch_wait"),
        "nn.forward_train_s": seconds("nn.forward_train"),
        "nn.forward_eval_s": seconds("nn.forward_eval"),
        "tensor.backward_s": seconds("tensor.backward"),
        "optim.step_s": seconds("optim.step"),
        "pruning.snapshot_s": seconds("pruning.snapshot"),
        "pruning.update_s": seconds("pruning.update"),
        "pruning.apply_mask_s": seconds("pruning.apply_mask"),
        "eval.all_s": seconds("eval.all"),
        "eval.sampled_s": seconds("eval.sampled"),
        "eval.client_s": seconds("eval.client"),
        "aggregation.s": seconds("aggregation"),
        "aggregation.states": counters.get("aggregation.states", 0.0),
        "systems.plan_s": seconds("systems.plan"),
        "systems.complete_s": seconds("systems.complete"),
        "hub.submit_batch_s": seconds("hub.submit_batch"),
        "hub.take_s": seconds("hub.take"),
        "hub.complete_s": seconds("hub.complete"),
        "hub.wait_for_s": seconds("hub.wait_for"),
        "hub.lease_requeues": counters.get("hub.lease_requeues", 0.0),
        "wire.pack_s": seconds("wire.pack"),
        "wire.unpack_s": seconds("wire.unpack"),
        "wire.from_wire_s": seconds("wire.from_wire"),
    }
    updates = counters.get("pruning.updates", 0.0)
    values["pruning.commit_ratio"] = (
        counters.get("pruning.commits", 0.0) / updates if updates else 0.0
    )
    for op in ("conv2d", "max_pool2d", "matmul"):
        values[f"engine.kernel_s.{op}"] = seconds("engine.kernel." + op)
        values[f"engine.kernel_calls.{op}"] = calls("engine.kernel." + op)
    values["engine.kernel_s.batch_norm"] = seconds("engine.batch_norm")
    values["engine.kernel_calls.batch_norm"] = calls("engine.batch_norm")
    for kind in OP_KINDS:
        values[f"engine.kernel_s.{kind}"] = 0.0
        values[f"engine.kernel_calls.{kind}"] = 0
    for name, (count, total, _) in totals.items():
        if name.startswith("engine.kernel."):
            kind = OPS[name[len("engine.kernel."):]].kind
            values[f"engine.kernel_s.{kind}"] += total
            values[f"engine.kernel_calls.{kind}"] += count
    batch_s = 0.0
    task_s = 0.0
    for kind in ("train", "evaluate"):
        values[f"execution.batch_s.{kind}"] = seconds("execution.batch." + kind)
        values[f"execution.task_s.{kind}"] = seconds("execution.task." + kind)
        batch_s += values[f"execution.batch_s.{kind}"]
        task_s += values[f"execution.task_s.{kind}"]
    values["execution.parallel_efficiency"] = (
        task_s / (batch_s * workers) if batch_s and task_s else 0.0
    )
    accesses = counters.get("pool.accesses", 0.0)
    builds = calls("pool.build")
    values["pool.accesses"] = accesses
    values["pool.builds"] = builds
    values["pool.hit_ratio"] = 1.0 - builds / accesses if accesses else 0.0
    covered = tracer.trainer_top_s()
    values["trace.run_s"] = run_s
    values["trace.unattributed_s"] = run_s - covered
    values["trace.coverage"] = covered / run_s if run_s else 0.0
    return values


def layer_table(tracer) -> List[Dict[str, float]]:
    """Rows ``{layer, calls, total_s, self_s}``, largest self time first."""
    rows = [
        {"layer": name, "calls": int(calls), "total_s": total, "self_s": own}
        for name, (calls, total, own) in tracer.totals().items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
