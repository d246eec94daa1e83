"""The fork helper both splits call: one job mapped over two processes."""
import logging
import os

import pytest

from vtlest import _split


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def _assert_released(fds):
    """No child is left, and the open file descriptors are ``fds`` again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _raise_on_load():
    raise ValueError("no such result here")


class _Unloadable:
    """Pickles, and raises when unpickled."""

    def __reduce__(self):
        return _raise_on_load, ()


class TestSplit:
    def test_results_in_item_order_from_both_halves(self, forks, caplog):
        parent = os.getpid()
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            results = _split.split("job", range(7), lambda i: (i * i, os.getpid()), "squares", 3)
        assert len(forks) == 1
        _assert_released(fds)
        assert [square for square, _ in results] == [i * i for i in range(7)]
        pids = [pid for _, pid in results]
        assert pids[:3] == [parent] * 3
        assert len(set(pids[3:])) == 1 and pids[3] != parent
        assert [r.getMessage() for r in caplog.records] == [
            "job: 7 squares split across 2 processes: 3 + 4"]

    def test_child_error_drops_the_split(self, forks, caplog):
        parent = os.getpid()

        def fails_in_a_child(i):
            if os.getpid() != parent:
                raise ValueError("no work in a child")
            return i

        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            assert _split.split("job", range(4), fails_in_a_child, "items", 1) is None
        assert len(forks) == 1
        _assert_released(fds)
        assert [(r.levelno, r.getMessage()) for r in caplog.records][1:] == [
            (logging.DEBUG, "job: the child's 2 items dropped: exit status 1")]

    @pytest.mark.parametrize("work,reason", [
        (lambda i: lambda: i, "exit status 1"),  # the child cannot pickle a lambda
        (lambda i: _Unloadable(), "no such result here"),  # this process cannot unpickle it
    ])
    def test_result_that_does_not_travel_drops_the_split(self, forks, caplog, work, reason):
        fds = _open_fds()
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            assert _split.split("job", range(4), work, "items", 2) is None
        assert len(forks) == 1
        _assert_released(fds)
        assert [r.getMessage() for r in caplog.records][1:] == [
            f"job: the child's 2 items dropped: {reason}"]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_least_above_half_forks_nothing(self, forks, caplog, n):
        with caplog.at_level(logging.DEBUG, logger="vtlest"):
            assert _split.split("job", range(n), lambda i: i, "items", n // 2 + 1) is None
        assert forks == []
        assert caplog.records == []
