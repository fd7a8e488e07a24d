"""ASY001 near-miss: blocking work correctly offloaded or truly async."""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor


def _blocking_refresh() -> None:
    time.sleep(0.05)


async def refresh_via_executor() -> None:
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, _blocking_refresh)


async def refresh_via_to_thread() -> None:
    await asyncio.to_thread(_blocking_refresh)


async def tick() -> None:
    await asyncio.sleep(0.1)  # awaited async sleep: the loop keeps turning


class Portal:
    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(2)

    async def warm(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, _blocking_refresh)


def sync_caller() -> None:
    # Blocking is fine here: no coroutine reaches this function inline.
    _blocking_refresh()


class OffloadingProtocol(asyncio.Protocol):
    """A loop callback that hands blocking work to the executor."""

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, _blocking_refresh)
        future.add_done_callback(self._refreshed)

    def _refreshed(self, future) -> None:
        self.transport.write(b"done")


class NotAProtocol:
    """Same method name, but nothing on a loop calls it."""

    def data_received(self, data: bytes) -> None:
        _blocking_refresh()
