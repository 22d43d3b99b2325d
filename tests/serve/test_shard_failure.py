"""Losing one shard must not take the gateway down.

A shard whose drain or pool call raises is failed for good.  Its
clients get an ERROR frame naming the failure, new stream keys bind to
the shards still serving, and no checkpoint is written after it, so the
last good one stands.  ``stats()`` and ``/healthz`` report it, and
``stop()`` raises it once everything is closed.  Every other shard
serves on, its verdicts equal to offline ``detect()``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import ObsServer, start_obs_in_thread
from repro.serve.gateway import (
    DetectionGateway,
    GatewayConfig,
    ShardError,
    start_in_thread,
)
from repro.serve.replay import ReplayClient, ReplayError
from repro.serve.workers import WorkerError
from repro.utils.artifact import read_meta


def break_shard(mode, gateway, workers_before):
    """Fail shard 0 the way each backend can: in thread mode its pool
    raises on the next drain, in process mode its worker is killed."""
    if mode == "thread":

        async def observe(groups):
            raise RuntimeError("injected drain failure")

        gateway._shards[0].pool.observe = observe
        return
    (worker,) = [
        proc
        for proc in multiprocessing.active_children()
        if proc.name == "repro-shard-worker-0" and proc not in workers_before
    ]
    worker.kill()
    worker.join(10.0)
    assert not worker.is_alive()


def health(obs):
    host, port = obs.address
    with urllib.request.urlopen(f"http://{host}:{port}/healthz", timeout=5) as r:
        return json.loads(r.read())["status"]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_a_failed_shard_leaves_the_others_serving(mode, detector, capture, tmp_path):
    path = tmp_path / "gateway.npz"
    workers_before = set(multiprocessing.active_children())
    gateway = DetectionGateway(
        detector,
        GatewayConfig(
            num_shards=2,
            worker_mode=mode,
            checkpoint_path=str(path),
            checkpoint_every=30,
            max_pending=2,  # readers park on a full queue
        ),
    )
    handle = start_in_thread(None, gateway=gateway)
    obs = start_obs_in_thread(ObsServer(gateway=gateway))
    host, port = handle.address

    def replay(key, packages, timeout=10.0):
        return ReplayClient(host, port, stream_key=key, timeout=timeout).replay(packages)

    try:
        assert replay("a", capture[:20]).complete
        bystander = [replay("b", capture[:20])]
        routes = handle.stats()["routes"]
        assert (routes["a"]["shard"], routes["b"]["shard"]) == (0, 1)
        assert health(obs) == "ok"
        break_shard(mode, gateway, workers_before)

        # b's drains make periodic checkpoints due; in process mode the
        # first one finds shard 0's worker dead and fails shard 0, not b.
        bystander.append(replay("b", capture[:100]))
        assert bystander[-1].complete and bystander[-1].start == 20

        started = time.monotonic()
        with pytest.raises(ReplayError, match="shard 0 failed"):
            replay("a", capture, timeout=5.0)
        assert time.monotonic() - started < 5.0

        processed = handle.stats()["processed"]
        bystander.append(replay("b", capture))
        assert bystander[-1].complete and bystander[-1].start == 100
        fresh = replay("c", capture[:10])
        assert fresh.complete

        stats = handle.stats()
        assert stats["routes"]["c"]["shard"] == 1
        assert [entry["shard"] for entry in stats["failed_shards"]] == [0]
        assert stats["failed_shards"][0]["error"].startswith("shard 0 failed")
        assert stats["processed"] > processed
        assert health(obs) == "degraded"
    finally:
        obs.stop()
        with pytest.raises(ShardError, match="shard 0 failed") as failure:
            handle.stop()
    if mode == "process":
        assert isinstance(failure.value.__cause__, WorkerError)
    else:
        assert isinstance(failure.value.__cause__, RuntimeError)
    # The last checkpoint (one in flight when the shard failed may land
    # after it) covers nothing judged after the failure: no periodic
    # checkpoint was written after it, and no shutdown checkpoint.
    meta = read_meta(path)["meta"]
    assert meta["processed"] <= processed
    assert "c" not in meta["stream_keys"]
    stitched = np.concatenate([result.anomalies for result in bystander])
    assert np.array_equal(stitched, detector.detect(capture).is_anomaly)
