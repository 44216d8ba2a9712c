"""Independent numpy tasks on threads.

numpy's transforms and ufuncs release the GIL, so tasks that spend
their time in them run in parallel on Python threads.  ``thread_map``
is the one place the package starts threads: the render of the speech
and noise sources and the sweep's per-delay scoring use it.
"""

import contextvars
import os
import threading


def cpu_count() -> int:
    """CPUs this process may run on: its affinity set, or ``os.cpu_count()``
    where the platform has no CPU affinity (macOS)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_map(fn, *iterables, threads: int | None = None) -> list:
    """``list(map(fn, *iterables))``, computed on up to ``threads`` threads.

    The calling thread is one of at most ``cpu_count()`` threads, no
    more than there are calls; the others are started for this call
    only, so on one CPU none is.  The calling thread takes the first
    call and each started thread the next; then each takes the next
    call not yet taken.  Every call runs in a copy of the caller's
    context, so that numpy's error state (``np.errstate``) holds in it
    as it does on the calling thread.  An exception stops the taking of
    further calls; once the calls taken have ended, the exception of the
    earliest call that raised one is raised on the calling thread, the
    one a serial map would raise.
    """
    calls = list(zip(*iterables))
    count = min(cpu_count(), len(calls), threads or len(calls))
    context = contextvars.copy_context()
    results = [None] * len(calls)
    errors = {}
    pending = iter(range(count, len(calls)))
    lock = threading.Lock()

    def drain(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = context.copy().run(fn, *calls[i])
            except BaseException as exc:  # re-raised on the calling thread
                with lock:
                    errors[i] = exc
            with lock:
                i = None if errors else next(pending, None)

    workers = [threading.Thread(target=drain, args=(i,)) for i in range(1, count)]
    for worker in workers:
        worker.start()
    try:
        if calls:
            drain(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results
