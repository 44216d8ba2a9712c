import os
import sys
import threading
import time

import numpy as np
import pytest

from ssanc.threads import cpu_count, thread_map


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs this process may run on."""

    def patch(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return patch


def test_cpu_count_falls_back_where_there_is_no_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cpu_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cpu_count() == 1


@pytest.mark.parametrize("count, calls, threads, started", [
    (1, 3, None, 0), (2, 3, None, 1), (8, 3, None, 2), (8, 2, None, 1), (8, 5, 2, 1),
])
def test_threads_started_are_bounded_by_the_cpus_the_calls_and_the_request(
    cpus, monkeypatch, count, calls, threads, started
):
    """At most one thread per CPU, per call and per requested thread, the
    calling thread one of them: on one CPU none is started."""
    cpus(count)
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    assert thread_map(pow, range(calls), [2] * calls, threads=threads) == [i * i for i in range(calls)]
    assert len(starts) == started
    assert not any(t.is_alive() for t in starts)


def test_first_call_runs_on_the_calling_thread(cpus):
    cpus(2)
    idents = thread_map(lambda _: threading.get_ident(), range(2))
    assert idents[0] == threading.get_ident() != idents[1]


def test_empty_map_starts_nothing(cpus):
    cpus(4)
    assert thread_map(lambda x: x, []) == []


def test_calls_keep_the_callers_numpy_error_state(cpus):
    """Every call, on the calling thread or not, sees np.errstate as the caller set it."""
    cpus(2)

    def divide(_):
        return float(np.float64(1.0) / np.float64(0.0))

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            thread_map(divide, range(4))
    with np.errstate(divide="ignore"):
        assert thread_map(divide, range(4)) == [np.inf] * 4


def test_the_earliest_failing_call_is_raised_and_no_call_is_taken_after_it(cpus):
    """The exception is the one a serial map would raise, even when a later
    call fails first; calls not yet taken when a call fails never run."""
    cpus(2)
    ran = []

    def call(i):
        ran.append(i)
        if i == 0:
            time.sleep(0.2)  # the other thread's call 1 fails first
        if i in (0, 1):
            raise ValueError(f"call {i}")
        return i

    with pytest.raises(ValueError, match="call 0"):
        thread_map(call, range(10))
    assert sorted(ran) == [0, 1]


def test_results_come_back_in_order_from_more_threads_than_cores(cpus):
    """A stress test: 16 threads on this machine's cores, a switch interval
    of 1 us, and 2000 calls; each runs once and its result lands in its place."""
    cpus(16)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        out = thread_map(lambda i: seen.append(i) or i * i, range(2000), threads=16)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 60
    assert out == [i * i for i in range(2000)]
    assert sorted(seen) == list(range(2000))
