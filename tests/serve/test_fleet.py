"""Fleet serving: concurrent multi-scenario sites through one gateway."""

from __future__ import annotations

import gc
import multiprocessing
import socket
import threading
import warnings

import numpy as np
import pytest

from repro.serve.fleet import FleetConfig, FleetRunner, SiteSpec


class TestFleetConfig:
    def test_round_robin_site_roster(self):
        config = FleetConfig(
            num_sites=5, scenarios=("gas_pipeline", "water_tank")
        )
        sites = config.sites()
        assert [site.scenario for site in sites] == [
            "gas_pipeline", "water_tank", "gas_pipeline", "water_tank",
            "gas_pipeline",
        ]
        assert len({site.name for site in sites}) == 5
        assert len({site.seed for site in sites}) == 5

    def test_defaults_to_all_registered_scenarios(self):
        from repro.scenarios import scenario_names

        sites = FleetConfig(num_sites=6).sites()
        assert {site.scenario for site in sites} == set(scenario_names())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sites": 0},
            {"cycles_per_site": 0},
            {"num_shards": 0},
            {"window": 0},
            {"worker_mode": "fork"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs).validate()

    def test_site_capture_is_deterministic(self):
        spec = SiteSpec(name="s", scenario="water_tank", seed=9, num_cycles=20)
        assert spec.capture() == spec.capture()

    def test_site_capture_matches_dataset_generation(self):
        # Same rng plumbing as generate_dataset: a site capture equals
        # that dataset's raw stream for the same scenario/seed/cycles.
        from repro.ics.dataset import generate_dataset
        from repro.scenarios import get_scenario

        spec = SiteSpec(name="s", scenario="power_feeder", seed=4, num_cycles=20)
        dataset = generate_dataset(
            get_scenario("power_feeder").dataset_config(num_cycles=20), seed=4
        )
        assert spec.capture() == dataset.all_packages

    def test_tiny_sites_are_streamable(self):
        # Live sites have no train/test split, so the offline split's
        # minimum-size rule must not apply to fleet captures.
        spec = SiteSpec(name="s", scenario="gas_pipeline", seed=0, num_cycles=2)
        assert len(spec.capture()) >= 8


class TestFleetRunner:
    @pytest.fixture(scope="class")
    def result(self, detector):
        config = FleetConfig(
            num_sites=4,
            scenarios=("gas_pipeline", "water_tank", "power_feeder"),
            cycles_per_site=25,
            num_shards=2,
            base_seed=1,
            verify_offline=True,
        )
        return FleetRunner(detector, config).run()

    def test_all_sites_complete(self, result):
        assert len(result.sites) == 4
        assert result.all_complete
        assert result.total_packages == sum(s.packages for s in result.sites)
        assert result.total_packages > 0
        assert result.packages_per_second > 0

    def test_streams_multiple_scenarios_concurrently(self, result):
        assert len(result.scenarios_streamed) >= 2

    def test_gateway_saw_every_stream(self, result):
        assert result.gateway_stats["streams"] == 4
        assert result.gateway_stats["processed"] == result.total_packages

    def test_verdicts_bit_identical_to_offline_detect(self, result):
        """The acceptance drill: every site's gateway verdicts equal the
        offline ``detect()`` pass over the same capture, bit for bit."""
        for site in result.sites:
            assert site.matches_offline is True, site.spec.name

    def test_site_verdict_arrays_consistent(self, result):
        for site in result.sites:
            assert len(site.anomalies) == site.packages
            assert len(site.levels) == site.packages
            # Anomalous packages carry a level tag.
            assert np.all(site.levels[site.anomalies] > 0)

    def test_verification_skipped_when_not_requested(self, detector):
        config = FleetConfig(
            num_sites=2,
            scenarios=("water_tank",),
            cycles_per_site=15,
            num_shards=1,
            verify_offline=False,
        )
        result = FleetRunner(detector, config).run()
        assert result.all_complete
        assert all(site.matches_offline is None for site in result.sites)
        assert result.all_match_offline  # None counts as "not refuted"

    def test_runner_requires_exactly_one_model_source(self, detector, registry):
        with pytest.raises(ValueError):
            FleetRunner()
        with pytest.raises(ValueError):
            FleetRunner(detector, registry=registry)


class TestFleetScaleOut:
    def test_hundred_sites_one_thread_each(self, detector):
        """The load-harness acceptance drill: 100 concurrent sites, one
        OS thread each, every verdict still bit-identical to offline."""
        config = FleetConfig(
            num_sites=100,
            scenarios=("gas_pipeline",),
            cycles_per_site=2,
            num_shards=2,
            verify_offline=True,
        )
        result = FleetRunner(detector, config).run()
        assert len(result.sites) == 100
        assert result.all_complete
        assert result.all_match_offline
        assert result.gateway_stats["streams"] == 100
        assert result.gateway_stats["processed"] == result.total_packages

    def test_latency_recording_yields_fleet_percentiles(self, detector):
        config = FleetConfig(
            num_sites=2,
            scenarios=("gas_pipeline",),
            cycles_per_site=5,
            num_shards=1,
            record_latency=True,
        )
        result = FleetRunner(detector, config).run()
        assert result.all_complete
        for site in result.sites:
            assert site.latencies is not None
            assert len(site.latencies) == site.packages
            assert np.all(site.latencies >= 0)
        percentiles = result.latency_percentiles()
        assert percentiles is not None
        assert 0 <= percentiles["p50_ms"] <= percentiles["p99_ms"]

    def test_no_latencies_without_recording(self, detector):
        config = FleetConfig(
            num_sites=1,
            scenarios=("gas_pipeline",),
            cycles_per_site=5,
            num_shards=1,
        )
        result = FleetRunner(detector, config).run()
        assert all(site.latencies is None for site in result.sites)
        assert result.latency_percentiles() is None

    def test_process_worker_mode_fleet(self, detector):
        """Fleet over the multi-process gateway backend: site threads in
        front, engine workers behind, verdicts still bit-identical."""
        config = FleetConfig(
            num_sites=20,
            scenarios=("gas_pipeline",),
            cycles_per_site=2,
            num_shards=2,
            worker_mode="process",
            verify_offline=True,
        )
        result = FleetRunner(detector, config).run()
        assert result.all_complete
        assert result.all_match_offline
        assert result.gateway_stats["streams"] == 20


class TestFleetTakenHttpPort:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_taken_http_port_stops_the_gateway(self, detector, mode):
        """The ops-plane port is taken: run() raises OSError, and neither
        the gateway's loop thread, its worker threads nor its shard
        processes outlive the error; the gateway's loop is closed."""
        gc.collect()
        threads_before = set(threading.enumerate())
        workers_before = set(multiprocessing.active_children())
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            runner = FleetRunner(
                detector,
                FleetConfig(
                    num_sites=1,
                    scenarios=("gas_pipeline",),
                    cycles_per_site=2,
                    num_shards=2,
                    worker_mode=mode,
                ),
                http_port=held.getsockname()[1],
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OSError):
                    runner.run()
                gc.collect()
        assert runner.http_address is None
        assert not [
            thread.name
            for thread in set(threading.enumerate()) - threads_before
            if thread.name.startswith("repro-")
        ]
        assert not [
            proc.name
            for proc in multiprocessing.active_children()
            if proc not in workers_before
            and proc.name.startswith("repro-shard-worker-")
        ]
        assert not [
            w for w in caught if "unclosed event loop" in str(w.message)
        ]


class TestHeterogeneousFleet:
    @pytest.fixture(scope="class")
    def result(self, class_registry):
        # >= 4 scenarios, one site each: the acceptance drill — every
        # site verified bit-identical against its *own* scenario's
        # registry artifact.
        config = FleetConfig(
            num_sites=4,
            cycles_per_site=25,
            num_shards=2,
            base_seed=2,
            verify_offline=True,
        )
        return FleetRunner(config=config, registry=class_registry).run()

    @pytest.fixture(scope="class")
    def class_registry(self, registry_root):
        from repro.registry import ModelRegistry

        return ModelRegistry(registry_root)

    def test_covers_four_scenarios(self, result):
        assert len(result.scenarios_streamed) >= 4
        assert result.heterogeneous
        assert result.gateway_stats["mode"] == "registry"

    def test_every_site_matches_its_own_artifact(self, result):
        assert result.all_complete
        for site in result.sites:
            assert site.matches_offline is True, site.spec.name
            assert site.route_scenario == site.spec.scenario
            assert site.route_version == 1

    def test_gateway_pooled_one_engine_per_scenario(self, result):
        routes = {
            route
            for shard in result.gateway_stats["shards"]
            for route in shard
        }
        assert routes == {
            f"{site.spec.scenario}@1" for site in result.sites
        }

    def test_untagged_fleet_is_auto_identified(self, class_registry):
        config = FleetConfig(
            num_sites=2,
            scenarios=("water_tank", "hvac_chiller"),
            cycles_per_site=20,
            num_shards=1,
            verify_offline=True,
            tag_streams=False,
        )
        result = FleetRunner(config=config, registry=class_registry).run()
        assert result.all_complete and result.all_match_offline
        assert result.gateway_stats["identified"] == 2

    def test_missing_scenario_fails_before_streaming(
        self, tmp_path, scenario_detectors
    ):
        from repro.registry import ModelRegistry, RegistryError

        partial = ModelRegistry(tmp_path / "partial")
        partial.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
        config = FleetConfig(
            num_sites=2,
            scenarios=("gas_pipeline", "water_tank"),
            cycles_per_site=15,
        )
        with pytest.raises(RegistryError, match="water_tank"):
            FleetRunner(config=config, registry=partial).run()
