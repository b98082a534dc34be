#!/usr/bin/env python3
"""Communication-cost analysis across algorithms (paper §4.2.2).

Edge devices upload at ~1 MB/s; the paper argues Sub-FedAvg wins twice on
communication: each exchange is smaller (pruned subnetworks + 1-bit masks)
and fewer rounds are needed.  This example measures both effects:

1. runs each algorithm with per-round accuracy evaluation,
2. prints per-round uplink traffic and the accrued total,
3. reports rounds-to-target-accuracy and the projected wall-clock upload
   time at 1 MB/s.

Usage::

    python examples/communication_budget.py
"""

from repro.federated import Federation, FederationConfig, LocalTrainConfig
from repro.pruning import UnstructuredConfig

UPLOAD_BYTES_PER_SECOND = 1e6  # the paper's constrained-edge assumption
TARGET_ACCURACY = 0.75

SETTINGS = dict(
    dataset="mnist",
    num_clients=10,
    rounds=6,
    sample_fraction=0.5,
    n_train=600,
    n_test=300,
    seed=3,
    eval_every=1,
    local=LocalTrainConfig(epochs=3, batch_size=10),
)


def main() -> None:
    algorithms = {
        "fedavg": {},
        "lg-fedavg": {},
        "sub-fedavg-un": {
            "unstructured": UnstructuredConfig(target_rate=0.7, step=0.25)
        },
    }

    results = {}
    for name, extra in algorithms.items():
        config = FederationConfig(algorithm=name, **SETTINGS, **extra)
        results[name] = Federation.from_config(config).run()

    print(f"{'algorithm':>14} | {'total up+down':>13} | {'rounds->' + format(TARGET_ACCURACY, '.0%'):>10} | upload time @1MB/s")
    print("-" * 66)
    for name, history in results.items():
        total_mb = history.total_communication_bytes / 1e6
        uploaded = sum(record.uploaded_bytes for record in history.rounds)
        rounds_needed = history.rounds_to_accuracy(TARGET_ACCURACY)
        rounds_text = str(rounds_needed) if rounds_needed else "never"
        seconds = uploaded / UPLOAD_BYTES_PER_SECOND
        print(
            f"{name:>14} | {total_mb:>10.2f} MB | {rounds_text:>10} | {seconds:>8.1f} s"
        )

    print("\nper-round uplink (MB), showing Sub-FedAvg's shrinking exchanges:")
    for name, history in results.items():
        per_round = ", ".join(
            f"{record.uploaded_bytes / 1e6:.2f}" for record in history.rounds
        )
        print(f"  {name:>14}: {per_round}")


if __name__ == "__main__":
    main()
