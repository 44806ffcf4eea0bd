"""The process map: items shared between this process and forked children.

_map(function, items) yields function(item) for each item. With
k = min(_process_count(), len(items)) > 1 workers:

- item i goes to worker i mod k; worker 0 is the caller and the others are
  children forked at the first next(), which inherit function and items and
  pipe back their results, pickled;
- the results come back in item order, with the serial loop's results and
  exception: the results up to the lowest-numbered item whose function
  raises, then its exception. An item that no child returns (its function
  raised, the child died or could not be forked) is computed here;
- every child is killed and reaped before the first result is yielded;
- callables must be pure: whatever one changes in a child is lost with it.

The map runs serially inside a child, without os.fork, and with one item or
one core. It is the only code of the package that forks; finite_model, cli,
transforms and montecarlo use it. Python 3.12 and later warn on os.fork in a
multi-threaded process: numpy's OpenBLAS starts threads, and a child makes
no BLAS call.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence


def _process_count() -> int:
    """How many processes a map may run in: the cores this process may run
    on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set in a forked child, where every map runs serially
_in_child = False


def _map(function: Callable, items: Sequence):
    """Yield function(item) for each item, in item order, as set out above."""
    workers = min(_process_count(), len(items))
    if workers < 2 or _in_child or not hasattr(os, "fork"):
        yield from map(function, items)
        return
    children = []
    try:
        for worker in range(1, workers):
            child = _fork_share(function, items[worker::workers])
            if child is None:
                break
            children.append(child)
        own, failure = _share(function, items[::workers])
        replies = [pipe.read() for _, pipe in children]
    finally:
        codes = [_reap(pid, pipe) for pid, pipe in children]
    shares = [own] + [pickle.loads(reply) if code == 0 else [] for reply, code in zip(replies, codes)]
    shares += [[]] * (workers - len(shares))
    for index, item in enumerate(items):
        worker, turn = index % workers, index // workers
        if turn < len(shares[worker]):
            yield shares[worker][turn]
        elif worker == 0:
            raise failure
        else:
            yield function(item)


def _share(function: Callable, items: Sequence):
    """(results, None) of function on each item, or (results before the
    first item that raised, its exception): _map raises it only if no lower
    item raises."""
    results = []
    for item in items:
        try:
            results.append(function(item))
        except Exception as exc:
            return results, exc
    return results, None


def _fork_share(function: Callable, items: Sequence):
    """(pid, read end of its pipe) of a child forked to pipe back the
    pickled results of _share(function, items), or None when fork fails.

    The child ends with os._exit: it runs no cleanup of the parent's,
    flushes none of its inherited output buffers and prints no traceback.
    Its exit code is 0 only when all its results were written."""
    global _in_child
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:
        _in_child = True
        os.close(read)
        data = memoryview(pickle.dumps(_share(function, items)[0]))
        while data:
            data = data[os.write(write, data):]
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, pipe) -> int:
    """Close a child's pipe, kill and reap it; its exit code (minus the
    signal number when a signal ended it)."""
    # a child whose pipe was read to the end is already exiting, and the
    # kill no longer changes its exit code
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
