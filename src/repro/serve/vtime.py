"""Deterministic virtual-time asyncio: the serve subsystem's clock.

A long-lived service cannot be benchmarked on wall time and stay
byte-identical across runs, so the service and its client fleet run on
a :class:`VirtualTimeEventLoop`: ``loop.time()`` reports *virtual
seconds* that only advance when every ready callback has run and the
loop jumps straight to the earliest scheduled timer.  The loop never
waits on the wall clock: while its own self-pipe is the only registered
file descriptor, the selector answers every poll with "nothing ready"
without a ``select`` syscall (whatever timeout the base loop computed —
a cancelled timer at the head of the heap makes that timeout positive).
Once any other descriptor is registered, polls go to the real
``select`` so its readiness is still delivered.  A simulated day
therefore costs exactly as much wall time as the callbacks scheduled
inside it — a two-day service run with thousands of requests finishes
in seconds of real time.

Determinism contract
--------------------
The loop introduces no nondeterminism of its own: the ready queue is
FIFO, timers are a heap keyed by ``(when, insertion counter)``, and the
virtual clock is a pure function of the timer schedule.  Combined with
the repo-wide rules (all randomness from :func:`~repro.parallel.hashing.
derive_rng` streams, no wall clocks in outputs), two same-seed service
runs execute the exact same callback sequence and export byte-identical
metrics.  ``tests/serve/test_vtime.py`` holds the loop to this.

The simulation day clock keys off the same virtual timeline:
``day = virtual_seconds // 86400``, which :class:`VirtualClock` exposes
so the service can keep its :class:`~repro.simulation.clock.
SimulationClock` (and everything downstream that reads it) in sync.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")

#: Virtual seconds per simulation day (the ``SimulationClock`` unit).
DAY_SECONDS = 86400.0


class VirtualLoopStalled(RuntimeError):
    """The loop has neither ready callbacks nor scheduled timers.

    On a wall-clock loop this state blocks in ``select`` until an
    external event arrives; a virtual-time service has no external
    events, so the only honest outcome is an error naming the deadlock
    (typically an ``await`` on a future nothing will ever resolve).
    """


class _VirtualSelector(selectors.SelectSelector):
    """``SelectSelector`` that skips the syscall for the self-pipe alone.

    The loop registers its self-pipe at construction.  Without signal
    handlers only ``call_soon_threadsafe`` writes to it, and that call
    has already queued its callback, so a poll has nothing to add and
    waiting on it would only sleep in wall time.
    """

    #: Set by the loop once its self-pipe exists; ``-1`` (always poll)
    #: once a signal handler makes the pipe carry signal numbers.
    self_pipe_fd = -1

    def select(self, timeout=None):
        registered = self._fd_to_key
        if len(registered) == 1 and self.self_pipe_fd in registered:
            return []
        return super().select(timeout)


class VirtualTimeEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock is simulated.

    ``time()`` returns virtual seconds.  When the ready queue drains,
    the loop advances the virtual clock to the earliest timer deadline
    before delegating to the stock ``_run_once``, which then fires the
    timer immediately; its selector poll is free (see
    :class:`_VirtualSelector`) — no wall-clock sleeping ever happens.

    ``start_time`` seeds the virtual clock: a resumed service run
    constructs its loop at the checkpointed virtual instant so every
    timestamp downstream of the barrier matches the uninterrupted run.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        selector = _VirtualSelector()
        super().__init__(selector)
        selector.self_pipe_fd = self._ssock.fileno()
        if start_time < 0:
            raise ValueError("virtual time cannot start negative")
        self._virtual_now = float(start_time)

    def time(self) -> float:
        return self._virtual_now

    def add_signal_handler(self, sig, callback, *args) -> None:
        # Signals are delivered through the self-pipe: poll it for real.
        self._selector.self_pipe_fd = -1
        super().add_signal_handler(sig, callback, *args)

    def _run_once(self) -> None:
        if not self._ready:
            if self._scheduled:
                # Jump to the earliest timer (cancelled handles are
                # fine to land on: the base loop discards them and the
                # next pass advances again).
                when = self._scheduled[0]._when
                if when > self._virtual_now:
                    self._virtual_now = when
            elif not self._stopping:
                raise VirtualLoopStalled(
                    "virtual-time loop has no ready callbacks and no "
                    "timers; an await can never complete")
        super()._run_once()


class VirtualClock:
    """Read-side facade over a virtual loop's timeline.

    The service and fleet take one of these instead of the loop so the
    only thing they can do with time is read it or sleep on it.
    """

    def __init__(self, loop: VirtualTimeEventLoop) -> None:
        self._loop = loop

    def now(self) -> float:
        """Virtual seconds since the service started."""
        return self._loop.time()

    @property
    def day(self) -> int:
        """The simulation day this virtual instant falls in."""
        return int(self._loop.time() // DAY_SECONDS)

    @property
    def hour_of_day(self) -> float:
        """Hour within the current day, in ``[0, 24)``."""
        return (self._loop.time() % DAY_SECONDS) / 3600.0

    async def sleep(self, seconds: float) -> None:
        """Advance virtual time without consuming wall time."""
        await asyncio.sleep(seconds)


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """Run ``main`` to completion on a fresh virtual-time loop."""
    loop = VirtualTimeEventLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        loop.close()
