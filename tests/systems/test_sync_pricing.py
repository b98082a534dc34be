"""Synchronous fleet pricing: device profiles, round seconds, time-to-accuracy.

Under the ``synchronous`` policy a round lasts as long as its slowest
sampled client (download, compute and upload in sequence) plus server
overhead; a finished history replays into per-round seconds and a
seconds-to-accuracy answer.
"""

import pytest

from repro.federated import (
    DeviceProfile,
    EDGE_PHONE,
    History,
    RASPBERRY_PI,
    RoundRecord,
    WORKSTATION,
)
from repro.systems import (
    Fleet,
    FleetSimulator,
    SynchronousPolicy,
    build_round_timelines,
    compare_simulated_time_to_accuracy,
)


def record(index, accuracy=None, up=1e6, down=1e6, clients=(0, 1)):
    return RoundRecord(
        round_index=index,
        sampled_clients=list(clients),
        train_loss=1.0,
        mean_accuracy=accuracy,
        uploaded_bytes=up,
        downloaded_bytes=down,
    )


def history(*records):
    run = History(algorithm="x")
    for rec in records:
        run.append(rec)
    return run


def make_simulator(profiles=(EDGE_PHONE,), overhead=0.0):
    return FleetSimulator(
        Fleet(cycle=profiles),
        SynchronousPolicy(),
        flops_per_example=1e6,
        examples_per_round=100,
        server_overhead_seconds=overhead,
    )


def round_seconds(simulator, rec):
    (seconds,) = simulator.simulate(history(rec)).round_seconds
    return seconds


class TestDeviceProfile:
    def test_defaults_match_paper_uplink(self):
        assert EDGE_PHONE.upload_bytes_per_second == 1e6  # §4.2.2: ~1 MB/s

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(flops_per_second=0)
        with pytest.raises(ValueError):
            DeviceProfile(upload_bytes_per_second=-1)

    def test_builtin_profiles_ordered_by_speed(self):
        assert (
            RASPBERRY_PI.flops_per_second
            < EDGE_PHONE.flops_per_second
            < WORKSTATION.flops_per_second
        )


class TestSynchronousRounds:
    def test_client_round_seconds_decomposition(self):
        timelines = build_round_timelines(
            Fleet(cycle=(EDGE_PHONE,)), 1, 0.0, [0], {0: (1e6, 8e6)}, 1e6, 100
        )
        compute = 3 * 1e6 * 100 / 1e9  # 0.3 s
        up = 1.0  # 1 MB at 1 MB/s
        down = 1.0  # 8 MB at 8 MB/s
        assert timelines.view(0).duration == pytest.approx(compute + up + down)

    def test_round_robin_profile_assignment(self):
        fleet = make_simulator(profiles=(EDGE_PHONE, WORKSTATION)).fleet
        assert fleet.profile_for(0) is EDGE_PHONE
        assert fleet.profile_for(1) is WORKSTATION
        assert fleet.profile_for(2) is EDGE_PHONE

    def test_round_priced_by_slowest_client(self):
        simulator = make_simulator(profiles=(WORKSTATION, RASPBERRY_PI))
        fast_only = record(1, clients=[0])
        mixed = record(1, clients=[0, 1])
        assert round_seconds(simulator, mixed) > round_seconds(simulator, fast_only)

    def test_overhead_added(self):
        with_overhead = make_simulator(overhead=2.0)
        without = make_simulator(overhead=0.0)
        assert round_seconds(with_overhead, record(1)) == pytest.approx(
            round_seconds(without, record(1)) + 2.0
        )

    def test_total_seconds_accumulates(self):
        simulator = make_simulator()
        report = simulator.simulate(history(record(1), record(2)))
        assert report.total_seconds == pytest.approx(
            2 * round_seconds(simulator, record(1))
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Fleet(cycle=())
        with pytest.raises(ValueError):
            FleetSimulator(
                Fleet(), SynchronousPolicy(), flops_per_example=0,
                examples_per_round=1,
            )

    def test_cheaper_uplink_means_faster_rounds(self):
        """Sub-FedAvg's smaller exchanges translate to wall-clock wins."""
        simulator = make_simulator()
        dense = record(1, up=4e6, down=4e6)
        sparse = record(1, up=2e6, down=2e6)
        assert round_seconds(simulator, sparse) < round_seconds(simulator, dense)


class TestTimeToAccuracy:
    def make_history(self, accuracies):
        return history(
            *(record(i, accuracy=acc) for i, acc in enumerate(accuracies, start=1))
        )

    def test_reaches_target(self):
        simulator = make_simulator()
        run = self.make_history([0.3, 0.6, 0.9])
        seconds = simulator.simulate(run).time_to_accuracy(run, target=0.55)
        assert seconds == pytest.approx(2 * round_seconds(simulator, record(1)))

    def test_never_reaches(self):
        run = self.make_history([0.3, 0.4])
        report = make_simulator().simulate(run)
        assert report.time_to_accuracy(run, target=0.99) is None

    def test_compare_table(self):
        simulator = make_simulator()
        histories = {
            "fast": self.make_history([0.9]),
            "slow": self.make_history([0.1, 0.9]),
            "never": self.make_history([0.1]),
        }
        # Stamp each round the way a live run's FleetSimCallback does.
        for run in histories.values():
            for rec, seconds in zip(run.rounds, simulator.simulate(run).round_seconds):
                rec.simulated_seconds = seconds
        table = compare_simulated_time_to_accuracy(histories, target=0.8)
        assert table["fast"] < table["slow"]
        assert table["never"] is None
