"""Virtual-time event loop: sleeps cost zero wall time, determinism."""

import asyncio
import os
import signal
import socket
import time

import pytest

from repro.serve import (
    DAY_SECONDS,
    VirtualClock,
    VirtualLoopStalled,
    VirtualTimeEventLoop,
    run_virtual,
)


class TestVirtualTime:
    def test_sleep_advances_virtual_time_not_wall_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            await asyncio.sleep(3600.0)
            return loop.time() - start

        started = time.monotonic()
        elapsed_virtual = run_virtual(main())
        elapsed_wall = time.monotonic() - started
        assert elapsed_virtual == pytest.approx(3600.0)
        assert elapsed_wall < 5.0

    def test_clock_day_and_hour_track_the_loop(self):
        async def main():
            loop = asyncio.get_running_loop()
            vclock = VirtualClock(loop)
            assert vclock.day == 0
            await vclock.sleep(DAY_SECONDS + 6 * 3600.0)
            return vclock.day, vclock.hour_of_day

        day, hour = run_virtual(main())
        assert day == 1
        assert hour == pytest.approx(6.0)

    def test_interleaved_sleepers_wake_in_timestamp_order(self):
        async def sleeper(order, delay, tag):
            await asyncio.sleep(delay)
            order.append(tag)

        async def main():
            order = []
            await asyncio.gather(
                sleeper(order, 3.0, "c"),
                sleeper(order, 1.0, "a"),
                sleeper(order, 2.0, "b"),
            )
            return order

        assert run_virtual(main()) == ["a", "b", "c"]

    def test_same_program_is_deterministic_across_runs(self):
        async def main():
            loop = asyncio.get_running_loop()
            trace = []

            async def worker(index):
                for step in range(3):
                    await asyncio.sleep(0.1 * (index + 1))
                    trace.append((round(loop.time(), 6), index, step))

            await asyncio.gather(*(worker(i) for i in range(4)))
            return trace

        assert run_virtual(main()) == run_virtual(main())

    def test_stall_raises_instead_of_blocking_forever(self):
        async def main():
            # A future nothing will ever resolve: on a wall-clock loop
            # this blocks in select() forever; the virtual loop detects
            # that no timer can advance time and raises.
            await asyncio.get_running_loop().create_future()

        loop = VirtualTimeEventLoop()
        try:
            with pytest.raises(VirtualLoopStalled):
                loop.run_until_complete(main())
        finally:
            loop.close()


class TestSelector:
    """The loop's poll skips ``select`` only while nothing but its own
    self-pipe is registered."""

    @staticmethod
    def count_selects(loop):
        selector = loop._selector
        calls = []
        real = selector._select

        def counting(*args):
            calls.append(args[-1])
            return real(*args)

        selector._select = counting
        return calls

    def test_self_pipe_alone_makes_no_select_call(self):
        async def main():
            for _ in range(50):
                await asyncio.sleep(1.0)

        loop = VirtualTimeEventLoop()
        try:
            calls = self.count_selects(loop)
            loop.run_until_complete(main())
            assert loop.time() == pytest.approx(50.0)
            assert calls == []
        finally:
            loop.close()

    def test_ready_reader_on_a_real_fd_is_delivered(self):
        loop = VirtualTimeEventLoop()
        left, right = socket.socketpair()
        try:
            calls = self.count_selects(loop)
            received = []

            def on_readable():
                received.append(left.recv(16))
                loop.remove_reader(left.fileno())

            loop.add_reader(left.fileno(), on_readable)
            right.send(b"ping")

            async def main():
                for _ in range(10):
                    if received:
                        return loop.time()
                    await asyncio.sleep(1.0)

            woke_at = loop.run_until_complete(main())
            assert received == [b"ping"]
            assert woke_at is not None and woke_at <= 1.0
            assert calls and all(timeout == 0 for timeout in calls)
        finally:
            left.close()
            right.close()
            loop.close()

    def test_cancelled_head_timer_costs_no_wall_time(self):
        # The base loop drops a cancelled timer at the heap head after
        # the virtual clock jumped to it, then computes a positive poll
        # timeout for the next timer; that poll must not sleep.
        loop = VirtualTimeEventLoop()
        try:
            loop.call_later(1.0, lambda: None).cancel()
            loop.call_later(30.0, loop.stop)
            started = time.monotonic()
            loop.run_forever()
            assert time.monotonic() - started < 5.0
            assert loop.time() == pytest.approx(30.0)
        finally:
            loop.close()

    def test_signal_handler_is_still_dispatched(self):
        loop = VirtualTimeEventLoop()
        received = []
        try:
            loop.add_signal_handler(signal.SIGUSR1, received.append, "usr1")

            async def main():
                os.kill(os.getpid(), signal.SIGUSR1)
                for _ in range(10):
                    if received:
                        return
                    await asyncio.sleep(1.0)

            loop.run_until_complete(main())
            assert received == ["usr1"]
        finally:
            loop.remove_signal_handler(signal.SIGUSR1)
            loop.close()
