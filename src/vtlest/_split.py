"""Two shares of one job at once: one in this process, one in a forked child.

A cold Ep estimate (:mod:`vtlest.pipeline`) and the synthesis of a large
corpus (:mod:`vtlest.synth`) both split this way; each supplies its two
shares, and the fork, the pipe, the signal mask and the reaping live here.
"""
from __future__ import annotations

import logging
import os
import signal
import threading
from typing import Callable

_log = logging.getLogger("vtlest")


def can_split() -> bool:
    """Whether this process may fork: ``os.fork`` and
    ``os.sched_getaffinity`` exist, two or more CPUs are available, and no
    other thread runs, as a forked child could inherit a lock it holds."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _child(theirs: Callable[[], bytes], fd: int):
    """In a forked child: write what ``theirs()`` returns to ``fd`` and leave
    through ``os._exit``, with status 1 on any error.  It never returns into
    the caller, so it flushes no inherited stdio, runs no atexit handler and
    logs nothing."""
    status = 1
    try:
        view = memoryview(theirs())
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


def split(label: str, mine: Callable[[], object], theirs: Callable[[], bytes],
          dropped: str) -> bytes | None:
    """Run ``theirs`` in one forked child while ``mine`` runs here, and return
    the bytes ``theirs`` returned, read through a pipe; or None when the
    split is dropped.

    A failed pipe or fork, an error of ``mine`` or the child's nonzero exit
    drops it with one DEBUG record on the ``vtlest`` logger, prefixed with
    ``label``; the child's names ``dropped``, what its share was.  The error
    is not raised: the caller does again whatever is not done, and so meets
    it as one process would.  The child is reaped before this returns, and killed
    first if its pipe was not read to the end.  SIGINT is held from before
    the fork until this process knows the child's pid, and while it reaps
    it; the child keeps it held, so a Ctrl-C sent to the process group
    interrupts only this process, which then kills the child."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    pid = data = r = None
    try:
        r, w = os.pipe()
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            pid = os.fork()
            if pid == 0:
                _child(theirs, w)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(w)
        mine()
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
    if data is not None and status:
        _log.debug("%s: the child's %s dropped: exit status %d",
                   label, dropped, os.waitstatus_to_exitcode(status))
        return None
    return data
