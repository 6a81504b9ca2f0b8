import os
import threading
import time

import pytest

from agbmap import forest, geostat, parallel


def test_usable_cores_reads_the_affinity_else_the_core_count(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
    assert parallel.usable_cores() == 2
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    assert parallel.usable_cores() == 8
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.usable_cores() == 1


def test_worker_count_pins_each_workload_side(monkeypatch):
    # kriging: desk-map (at most 900 targets) and fullscale-rf (625) stay in
    # the caller, fullscale-krige (10 000) forks; the forest: desk-map's
    # 150 trees x 264 rows stays in process, fullscale-rf's 50 x 3000 forks,
    # as does the full-scale map's 150 x 3000
    targets = [625, 900, 1999, 2000, 10_000]
    pairs = [(150, 264), (199, 251), (1, 60_000), (50, 1000), (50, 3000), (150, 3000),
             (3, 100_000)]
    for cores, krige, grow in ((1, [1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1]),
                               (2, [1, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2, 2]),
                               (4, [1, 1, 1, 2, 4], [1, 1, 1, 2, 4, 4, 3])):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        assert [parallel.workers(-(-n // geostat._CHUNK), n, geostat._WORKER_TARGETS)
                for n in targets] == krige
        assert [parallel.workers(t, t * r, forest._WORKER_PAIRS) for t, r in pairs] == grow


def test_results_come_back_in_run_order(monkeypatch, forks):
    monkeypatch.setattr(parallel, "usable_cores", lambda: 3)
    parent = os.getpid()

    def fn(run):
        if run.start == 2:
            time.sleep(0.2)  # the first child ends last
        return list(run), os.getpid() == parent

    assert parallel.map_runs(fn, 8, 8, 1) == [([0, 1], True), ([2, 3, 4], False),
                                              ([5, 6, 7], False)]
    assert forks == [1, 1]


def _raise():
    raise LookupError("planted in a forked run")


@pytest.mark.parametrize("act, error", [(_raise, LookupError),
                                        (lambda: os._exit(3), ChildProcessError)])
def test_a_failed_child_run_raises_here(forks, act, error):
    parent = os.getpid()

    def fn(run):
        if os.getpid() != parent:
            act()
        return list(run)

    with pytest.raises(error) as raised:
        parallel.map_runs(fn, 2, 2, 1)
    assert forks == [1]
    if error is LookupError:
        assert str(raised.value) == "planted in a forked run"


def test_an_interrupt_kills_a_sleeping_child(forks):
    parent = os.getpid()

    def fn(run):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.map_runs(fn, 2, 2, 1)
    assert forks == [1]
    assert time.monotonic() - start < 30  # the sleeping child was not waited for


def test_one_run_forks_nothing(forks):
    assert parallel.map_runs(list, 5, 9, 5) == [[0, 1, 2, 3, 4]]  # 9 units give one worker
    assert parallel.map_runs(list, 1, 10, 1) == [[0]]
    assert parallel.map_runs(list, 0, 0, 1) == [[]]
    assert forks == []


def test_another_live_thread_gives_one_worker(forks):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert parallel.workers(2, 2, 1) == 1
        assert parallel.map_runs(list, 2, 2, 1) == [[0, 1]]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert parallel.workers(2, 2, 1) == 2
