"""One job mapped over two processes: half here, half in a forked child.

A cold Ep estimate (:mod:`vtlest.pipeline`) and the synthesis of a large
corpus (:mod:`vtlest.synth`) both split this way; each supplies its items
and the work to do on one, and the fork, the pipe, the signal mask and the
reaping live here.
"""
from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
from typing import Callable, Sequence

_log = logging.getLogger("vtlest")


def can_split() -> bool:
    """Whether this process may fork: ``os.fork`` and
    ``os.sched_getaffinity`` exist, two or more CPUs are available, and no
    other thread runs, as a forked child could inherit a lock it holds."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _child(results: Callable[[], list], fd: int):
    """In a forked child: write ``results()`` pickled to ``fd`` and leave
    through ``os._exit``, with status 1 on any error.  It never returns into
    the caller, so it flushes no inherited stdio, runs no atexit handler and
    logs nothing."""
    status = 1
    try:
        view = memoryview(pickle.dumps(results(), pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(fd, view):]
        status = 0
    finally:
        os._exit(status)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def split(label: str, items: Sequence, work: Callable, noun: str, least: int) -> list | None:
    """``[work(item) for item in items]``, the first half computed here and
    the second in one forked child, which sends its results back pickled
    through a pipe; or None when the split is not made or is dropped.

    It is not made, and nothing forks, when :func:`can_split` fails or a
    half would hold fewer than ``least`` items.  Otherwise one DEBUG record
    on the ``vtlest`` logger, prefixed with ``label``, counts the ``noun``
    (what the items are) in each half.  A failed pipe or fork, an error of
    this process's half, the child's nonzero exit (an error of its half, or
    results that cannot be pickled) or results that do not unpickle drop
    the split with one more DEBUG record.  The error is not raised: the
    caller does again whatever is not done, and so meets it as one process
    would.  The child is reaped before this returns, and killed first if its
    pipe was not read to the end.  SIGINT is held from before the fork
    until this process knows the child's pid, and while it reaps it; the
    child keeps it held, so a Ctrl-C sent to the process group interrupts
    only this process, which then kills the child."""
    mine, theirs = items[:len(items) // 2], items[len(items) // 2:]
    if len(mine) < least or not can_split():
        return None
    _log.debug("%s: %d %s split across 2 processes: %d + %d",
               label, len(items), noun, len(mine), len(theirs))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    pid = data = r = None
    try:
        r, w = os.pipe()
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            pid = os.fork()
            if pid == 0:
                _child(lambda: [work(item) for item in theirs], w)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(w)
        results = [work(item) for item in mine]
        data = _read_to_end(r)
    except Exception as exc:  # a failed pipe or fork, or an error the caller meets again
        _log.debug("%s: split dropped on the parent's error: %s", label, exc)
    finally:
        if r is not None:
            os.close(r)
        if pid is not None:  # killed first unless its pipe was read to the end
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if data is None:
                    os.kill(pid, signal.SIGKILL)
                status = os.waitpid(pid, 0)[1]
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    if data is None:
        return None
    if status:
        _log.debug("%s: the child's %d %s dropped: exit status %d",
                   label, len(theirs), noun, os.waitstatus_to_exitcode(status))
        return None
    try:  # written by the child above, so safe to unpickle
        return results + pickle.loads(data)
    except Exception as exc:
        _log.debug("%s: the child's %d %s dropped: %s", label, len(theirs), noun, exc)
        return None
