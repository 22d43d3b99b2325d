"""Host one asyncio server on a private event loop in a daemon thread.

The gateway and the observability server both offer a blocking handle
for tests, notebooks and the fleet runner; :class:`LoopThread` is the
one implementation of that job.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Coroutine
from typing import Any


class LoopThread:
    """A fresh event loop running in a daemon thread named ``name``.

    The constructor runs ``start`` on the loop and returns once it has
    finished.  If ``start`` raises, the loop is closed, the thread is
    joined and the error is re-raised here, so a failed start leaves
    nothing behind.
    """

    def __init__(self, start: Coroutine[Any, Any, Any], name: str) -> None:
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(start)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                failure.append(exc)
                self.loop.close()
                started.set()
                return
            started.set()
            try:
                self.loop.run_forever()
            finally:
                self.loop.run_until_complete(self.loop.shutdown_asyncgens())
                self.loop.close()

        self._thread = threading.Thread(target=run, name=name, daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            self._thread.join()
            raise failure[0]

    def stop(self, coro: Coroutine[Any, Any, Any], timeout: float) -> None:
        """Run ``coro`` on the loop, then stop the loop and join the
        thread — the last two even when ``coro`` fails or times out."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            future.result(timeout)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout)
