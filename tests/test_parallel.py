import json
import os
import threading
import time

import pytest

from agbmap import forest, geostat, parallel, pipeline, waveform
from agbmap.cli import main


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
    # and so would the full-scale map's 150 x 3000, which grow inside its
    # jobs, where a pool never nests; the footprint driver: desk-map's 400
    # records fork, as do the full-scale map's 3000, and the tests' scenes of
    # at most 319 records stay in the caller; run_mapping's jobs: the CV
    # alone stays in the caller, the CV and one or more maps fork, desk-map's
    # CV and three maps among them
    targets = [625, 900, 1999, 2000, 10_000]
    pairs = [(150, 264), (199, 251), (1, 60_000), (50, 1000), (50, 3000), (150, 3000),
             (3, 100_000)]
    records = [150, 256, 257, 319, 320, 400, 3000]
    jobs = [1, 2, 3, 4]
    for cores, krige, grow, drive, run in (
            (1, [1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1]),
            (2, [1, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2, 2], [1, 1, 1, 1, 2, 2, 2], [1, 2, 2, 2]),
            (4, [1, 1, 1, 2, 4], [1, 1, 1, 2, 4, 4, 3], [1, 1, 1, 1, 2, 2, 4], [1, 2, 3, 4])):
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        assert [parallel.workers(-(-n // geostat._CHUNK), n, geostat._WORKER_TARGETS)
                for n in targets] == krige
        assert [parallel.workers(t, t * r, forest._WORKER_PAIRS) for t, r in pairs] == grow
        assert [parallel.workers(-(-n // waveform._CHUNK), n, waveform._WORKER_RECORDS)
                for n in records] == drive
        assert [parallel.workers(n, n, pipeline._WORKER_JOBS) for n in jobs] == run


@pytest.mark.parametrize("overrides", [{}, {"trend": "lm", "grid_sizes": [1000]}],
                         ids=["rf", "lm_1000"])
def test_map_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, forks,
                                                       overrides):
    # the desk scene's 400 records are two packs, and the run's jobs are the
    # calibration CV and one map per grid size; on one worker all run in the
    # caller, on two the second pack and the later jobs run in forked
    # children, whose forests or linear models come back through the pipe
    assert main(["simulate", "--seed", "7", "--out", str(tmp_path / "scene")]) == 0
    config = tmp_path / "scene" / "run_config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), **overrides}))
    argv = ["map", "--config", str(config)]
    run = tmp_path / "scene" / "run"
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    assert main(argv) == 0
    run.rename(tmp_path / "one")
    assert forks == []
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    monkeypatch.setattr(waveform, "_WORKER_RECORDS", 1)
    assert main(argv) == 0
    assert forks == [1, 1]  # the driver's and the job pool's; no job forks inside
    names = sorted(p.name for p in run.iterdir())
    assert "metrics.csv" in names and "agb_1000.asc" in names
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert (run / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


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


def test_a_pool_never_nests(forks):
    parent = os.getpid()

    def fn(run):
        nested = parallel.map_runs(list, 2, 2, 1)
        return os.getpid() == parent, nested, parallel.workers(2, 2, 1)

    assert parallel.workers(2, 2, 1) == 2
    assert parallel.map_runs(fn, 2, 2, 1) == [(True, [[0, 1]], 1), (False, [[0, 1]], 1)]
    assert forks == [1]
    assert parallel.workers(2, 2, 1) == 2
    with pytest.raises(LookupError):
        parallel.map_runs(lambda run: _raise(), 2, 2, 1)
    assert forks == [1, 1]
    assert parallel.workers(2, 2, 1) == 2


def _open_descriptors():
    """The process's open file descriptors, or None where /proc/self/fd is
    not there to list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_repeated_pools_leave_no_child_nor_descriptor(forks):
    before = _open_descriptors()
    for i in range(50):
        assert parallel.map_runs(lambda run: [10 * i + j for j in run], 4, 4, 1) == [
            [10 * i, 10 * i + 1], [10 * i + 2, 10 * i + 3]]
    assert forks == [1] * 50
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is None:
        pytest.skip("no /proc/self/fd to list open descriptors")
    assert _open_descriptors() == before


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
