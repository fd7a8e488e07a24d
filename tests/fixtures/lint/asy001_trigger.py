"""ASY001 trigger: coroutines and loop callbacks that reach blocking
primitives inline."""

import asyncio
import subprocess
import time


def _throttle() -> None:
    time.sleep(0.05)


def _refresh() -> None:
    _throttle()


async def handle_direct() -> None:
    time.sleep(1.0)  # blocks the loop outright


async def handle_transitive() -> None:
    _refresh()  # -> _throttle -> time.sleep, two hops deep


async def handle_subprocess() -> str:
    proc = subprocess.run(["true"], capture_output=True)
    return proc.stdout.decode()


class Session:
    def __init__(self, lock) -> None:
        self._lock = lock

    async def acquire_inline(self) -> None:
        self._lock.acquire()  # parks the loop until the lock frees


class SlowProtocol(asyncio.Protocol):
    """Transport callbacks run on the loop, like a coroutine body."""

    def data_received(self, data: bytes) -> None:
        self._answer()

    def eof_received(self) -> None:
        self._answer()  # the same blocking site: one finding for the class

    def _answer(self) -> None:
        _refresh()


def schedule(loop) -> None:
    loop.call_soon(_throttle_later)


def _throttle_later() -> None:
    time.sleep(0.01)
