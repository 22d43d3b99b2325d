"""The one event-loop-thread runner behind the gateway and ops-plane handles.

A failed start is covered through both handles (``TestFailedStart`` in
``tests/serve/test_engine_pool.py`` and the held-port test in
``tests/obs/test_httpapi.py``); this pins the other half of the job.
"""

from __future__ import annotations

import threading

import pytest

from repro.utils.loop_thread import LoopThread


def test_failed_stop_still_stops_the_loop_and_joins_the_thread():
    async def start():
        pass

    async def stop():
        raise RuntimeError("stop failed")

    runner = LoopThread(start(), "repro-test-loop")
    with pytest.raises(RuntimeError, match="stop failed"):
        runner.stop(stop(), timeout=5.0)
    assert runner.loop.is_closed()
    assert not [t for t in threading.enumerate() if t.name == "repro-test-loop"]
