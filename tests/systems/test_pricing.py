"""Round pricing pinned to a golden fixture, plus the array-path pieces.

``pricing_golden.json`` was frozen from the retired per-client pricing
loop.  The simulator must reproduce it exactly — the same plans,
outcomes, clock positions, in-flight sets, RNG state and per-client
timeline phases; same floats, compared with ``==``, not approximately.
A federation on a hierarchical fleet must also run end to end.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.federated import (
    EDGE_PHONE,
    Federation,
    FederationConfig,
    RASPBERRY_PI,
    ScenarioConfig,
    SystemsConfig,
    WORKSTATION,
)
from repro.systems import (
    AsyncBufferPolicy,
    DeadlinePolicy,
    Fleet,
    FleetSimulator,
    HierarchicalFleet,
    LazyDeliveries,
    PolicyDecision,
    RoundPolicy,
    SynchronousPolicy,
    build_round_timelines,
)
from repro.systems.rounds import Delivery

GOLDEN = json.loads(Path(__file__).with_name("pricing_golden.json").read_text())

THREE_TIER = Fleet(cycle=(EDGE_PHONE, RASPBERRY_PI, WORKSTATION))
FLEETS = {
    "three-tier": THREE_TIER,
    "hierarchical": HierarchicalFleet(
        cycle=(EDGE_PHONE, RASPBERRY_PI), regions=2,
        region_uplink_bytes_per_second=1.2e6,
    ),
}

POLICIES = {
    "synchronous": lambda: SynchronousPolicy(),
    "deadline": lambda: DeadlinePolicy(2.0),
    "async-buffer": lambda: AsyncBufferPolicy(buffer_size=2),
}


def build_simulator(case):
    """The simulator a golden case name ``fleet/policy/jitter=x`` describes."""
    fleet, policy, jitter = case.split("/")
    return FleetSimulator(
        FLEETS[fleet],
        POLICIES[policy](),
        flops_per_example=1e6,
        examples_per_round=100,
        server_overhead_seconds=0.5,
        jitter=float(jitter.removeprefix("jitter=")),
        seed=7,
    )


def traffic_for(cohort):
    """Skewed per-client bytes so re-pricing is not a no-op."""
    return {cid: (1e6 + cid * 3e5, 2e6 + cid * 1e5) for cid in cohort}


#: Overlapping cohorts so async rounds carry work across boundaries.
COHORTS = [(0, 1, 2, 3), (2, 3, 4, 5), (0, 4, 5, 6), (1, 2, 6, 7), (0, 1, 2, 3)]


def phases(timelines):
    """``[client, download, compute, upload, duration, finish]`` rows."""
    return [
        list(row)
        for row in zip(
            timelines.client_ids.tolist(),
            timelines.download_seconds.tolist(),
            timelines.compute_seconds.tolist(),
            timelines.upload_seconds.tolist(),
            timelines.durations.tolist(),
            timelines.finishes.tolist(),
        )
    ]


def drive(simulator):
    """Plan + complete the fixed cohort schedule, in the fixture's shape."""
    rounds = []
    for round_index, cohort in enumerate(COHORTS, start=1):
        plan = simulator.plan_round(round_index, cohort, traffic_for(cohort))
        timelines = simulator.pending_timelines()
        outcome = simulator.complete_round(None)
        rounds.append({
            "start": plan.start,
            "started": list(plan.started),
            "busy": list(plan.busy),
            "deliveries": [
                [d.client_id, d.round_started, d.staleness, d.weight]
                for d in plan.deliveries
            ],
            "stragglers": list(plan.stragglers),
            "plan_close_seconds": plan.close_seconds,
            "plan_round_seconds": plan.round_seconds,
            "close_seconds": outcome.close_seconds,
            "round_seconds": outcome.round_seconds,
            "timelines": phases(timelines),
        })
    return rounds


@pytest.mark.parametrize("case", sorted(GOLDEN["drives"]))
class TestGoldenPricing:
    def test_plans_and_outcomes_match_golden(self, case):
        golden = GOLDEN["drives"][case]
        simulator = build_simulator(case)
        for round_index, (got, want) in enumerate(
            zip(drive(simulator), golden["rounds"]), start=1
        ):
            assert got == want, f"round {round_index}"
        # Same clock, same totals, same carried in-flight set — bitwise.
        assert simulator.clock.now == golden["clock"]
        assert simulator.total_seconds == golden["total_seconds"]
        in_flight = sorted(
            [cid, timeline.finish] for cid, timeline in simulator.in_flight.items()
        )
        assert in_flight == golden["in_flight"]

    def test_jitter_stream_matches_golden(self, case):
        """One batched draw per plan: the RNG ends where the fixture's did,
        so later rounds (or a fresh() engine) never shift the seed."""
        simulator = build_simulator(case)
        drive(simulator)
        assert (
            simulator.clock.rng.bit_generator.state
            == GOLDEN["drives"][case]["rng_state"]
        )


class TestRoundTimelines:
    def test_cohort_phases_match_golden(self):
        golden = GOLDEN["cohort_timelines"]["three-tier/17-clients"]
        cohort = tuple(golden["client_ids"])
        batch = build_round_timelines(
            THREE_TIER, golden["round_index"], golden["start"], cohort,
            traffic_for(cohort), 1e6, 100.0,
        )
        assert phases(batch) == golden["phases"]
        # The per-client view agrees with the arrays it was cut from.
        for position, (_, down, compute, up, duration, finish) in enumerate(
            golden["phases"]
        ):
            view = batch.view(position)
            assert (view.download_seconds, view.compute_seconds) == (down, compute)
            assert view.upload_seconds == up
            assert (view.duration, view.finish) == (duration, finish)

    def test_jitter_factors_match_golden(self):
        golden = GOLDEN["cohort_timelines"]["three-tier/jitter"]
        cohort = tuple(golden["client_ids"])
        batch = build_round_timelines(
            THREE_TIER, golden["round_index"], golden["start"], cohort,
            traffic_for(cohort), 1e6, 100.0,
            jitter_factors=np.array(golden["jitter_factors"]),
        )
        assert phases(batch) == golden["phases"]

    def test_uniform_traffic_pair_matches_per_client_map(self):
        cohort = (0, 1, 2, 3)
        pair = build_round_timelines(
            THREE_TIER, 1, 0.0, cohort, (2e6, 3e6), 1e6, 100.0
        )
        mapped = build_round_timelines(
            THREE_TIER, 1, 0.0, cohort, {cid: (2e6, 3e6) for cid in cohort},
            1e6, 100.0,
        )
        assert np.array_equal(pair.durations, mapped.durations)


class TestLazyDeliveries:
    def test_sequence_protocol_and_equality(self):
        lazy = LazyDeliveries(
            np.array([3, 1]), np.array([2, 1]), np.array([0, 1]),
            np.array([1.0, 0.5]),
        )
        assert len(lazy) == 2
        assert lazy[0] == Delivery(3, 2, 0, 1.0)
        assert lazy[-1] == Delivery(1, 1, 1, 0.5)
        assert lazy[0:2] == (Delivery(3, 2, 0, 1.0), Delivery(1, 1, 1, 0.5))
        assert lazy == (Delivery(3, 2, 0, 1.0), Delivery(1, 1, 1, 0.5))
        assert lazy != (Delivery(3, 2, 0, 1.0),)
        assert lazy.id_set == frozenset({1, 3})
        assert lazy.weight_for(1) == 0.5
        assert lazy.weight_for(99) == 0.0


class TestThirdPartyPolicy:
    def test_array_shaped_policy_plugs_in(self):
        class FirstArrivalOnly(RoundPolicy):
            name = "first-arrival"

            def decide(self, round_index, start, fresh, carried):
                first = int(np.argmin(fresh.durations))
                late = np.delete(fresh.client_ids, first)
                return PolicyDecision(
                    deliveries=LazyDeliveries.uniform(
                        fresh.client_ids[first:first + 1], round_index
                    ),
                    stragglers=tuple(late.tolist()),
                    close_seconds=float(fresh.durations[first]),
                )

            def close_seconds(self, plan, fresh, carried):
                return float(fresh.durations.min())

        simulator = FleetSimulator(
            THREE_TIER, FirstArrivalOnly(), flops_per_example=1e6,
            examples_per_round=100,
        )
        plan = simulator.plan_round(1, (0, 1, 2), traffic_for((0, 1, 2)))
        assert [d.client_id for d in plan.deliveries] == [2]  # workstation
        assert plan.stragglers == (0, 1)
        outcome = simulator.complete_round(None)
        assert outcome.close_seconds == plan.close_seconds


class TestHierarchicalFleet:
    def test_contention_caps_upload_rates(self):
        fleet = HierarchicalFleet(
            cycle=(EDGE_PHONE,), regions=2,
            region_uplink_bytes_per_second=1.5e6,
        )
        # Four clients, two per cell: each gets 0.75 MB/s of backhaul,
        # below the 1 MB/s device uplink.
        rates = fleet.upload_rates((0, 1, 2, 3))
        assert np.all(rates == 0.75e6)
        # A lone client per cell gets the full backhaul, capped by device.
        assert np.all(fleet.upload_rates((0, 1)) == 1e6)

    def test_crowded_cells_slow_the_round(self):
        uncontended = Fleet(cycle=(EDGE_PHONE,))
        contended = HierarchicalFleet(
            cycle=(EDGE_PHONE,), regions=1,
            region_uplink_bytes_per_second=1e6,
        )
        cohort = tuple(range(8))
        free = build_round_timelines(
            uncontended, 1, 0.0, cohort, (1e6, 1e6), 1e6, 100.0
        )
        shared = build_round_timelines(
            contended, 1, 0.0, cohort, (1e6, 1e6), 1e6, 100.0
        )
        # Eight phones share one 1 MB/s cell: uploads take 8x longer.
        assert shared.max_duration() > free.max_duration()
        assert np.all(shared.upload_seconds == free.upload_seconds * 8.0)

    def test_registry_factory_validates_scenario(self):
        scenario = ScenarioConfig(
            fleet="hierarchical", regions=3,
            region_uplink_bytes_per_second=2e6,
        )
        fleet = scenario.build_fleet(num_clients=12)
        assert isinstance(fleet, HierarchicalFleet)
        assert fleet.regions == 3
        with pytest.raises(ValueError, match="regions"):
            ScenarioConfig(fleet="hierarchical").build_fleet(num_clients=4)
        with pytest.raises(ValueError, match="uplink"):
            ScenarioConfig(fleet="hierarchical", regions=2).build_fleet(
                num_clients=4
            )

    def test_hierarchical_federation_run_end_to_end(self):
        config = FederationConfig(
            dataset="mnist",
            algorithm="fedavg",
            num_clients=6,
            rounds=2,
            sample_fraction=0.5,
            seed=0,
            n_train=240,
            n_test=120,
            scenario=ScenarioConfig(
                profiles=("edge-phone", "raspberry-pi"),
                fleet="hierarchical",
                regions=2,
                region_uplink_bytes_per_second=5e5,
            ),
            systems=SystemsConfig(
                flops_per_example=1e6, examples_per_round=100.0
            ),
        )
        result = Federation.from_config(config).run()
        assert len(result.rounds) == 2
        assert all(r.simulated_seconds > 0 for r in result.rounds)
        # Hash round-trips with the hierarchical scenario fields present.
        restored = FederationConfig.from_json(config.to_json())
        assert restored.stable_hash() == config.stable_hash()


class TestHashGating:
    def base(self, **overrides):
        settings = dict(
            dataset="mnist", algorithm="fedavg", num_clients=6, rounds=2,
            seed=0, n_train=240, n_test=120,
        )
        settings.update(overrides)
        return FederationConfig(**settings)

    def test_pool_defaults_absent_from_canonical_payload(self):
        payload = self.base()._canonical_dict()
        assert "client_cache" not in payload
        assert "state_store" not in payload

    def test_non_default_pool_knobs_join_the_hash(self):
        default = self.base()
        assert (
            self.base(client_cache=8).stable_hash() != default.stable_hash()
        )
        assert (
            self.base(state_store="file").stable_hash() != default.stable_hash()
        )

    @pytest.mark.parametrize("pricing", ["vector", "scalar"])
    def test_legacy_pricing_key_is_dropped_on_load(self, pricing):
        """Exported configs carried ``systems.pricing``; both engines priced
        identically, so either value loads to the same config and hash."""
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg",
            systems=SystemsConfig(round_policy="deadline", deadline_seconds=1.0),
        )
        payload = config.to_dict()
        payload["systems"]["pricing"] = pricing
        loaded = FederationConfig.from_dict(payload)
        assert loaded == config
        assert loaded.stable_hash() == "27b7ecfdfef01a9b"
        assert FederationConfig.from_json(json.dumps(payload)) == config

    @pytest.mark.parametrize("pricing", ["vector", "scalar"])
    def test_legacy_pricing_key_dropped_from_a_systems_mapping(self, pricing):
        config = self.base(
            systems={"round_policy": "deadline", "deadline_seconds": 1.0,
                     "pricing": pricing},
        )
        assert config.systems == SystemsConfig(
            round_policy="deadline", deadline_seconds=1.0
        )
        assert "pricing" not in config._canonical_dict()["systems"]

    def test_pricing_is_no_longer_a_systems_field(self):
        with pytest.raises(TypeError):
            SystemsConfig(pricing="vector")

    def test_hierarchical_scenario_fields_gated(self):
        plain = self.base(scenario=ScenarioConfig())._canonical_dict()
        assert "regions" not in plain.get("scenario", {})
