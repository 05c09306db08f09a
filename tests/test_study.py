"""The data-volume study fits its cells on every CPU in the process's
affinity mask: the cells do not depend on how many there are, an error in
any process ends the study as that error, and no worker outlives it."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import pytest

from hallcal import fileio, study
from hallcal.cli import cmd_generate, main
from hallcal.engine import KnowledgeSurrogateModel, VanillaSurrogateModel
from hallcal.errors import ObjectiveNonFiniteError

FRACTIONS = (0.25, 0.5, 1.0)  # of a 20-sample pool's 16 training samples: 9 cells


@pytest.fixture
def case(tmp_path):
    paths = cmd_generate(tmp_path / "case", seed=9, n_servers=12, n_cold=4, n_hot=2)
    layout = fileio.load_layout(paths["layout"])
    scenario = fileio.load_scenario(paths["scenario"], layout)
    return paths, scenario, fileio.load_state(paths["state"], layout)


@pytest.fixture
def alone(monkeypatch):
    """The study sees no other thread: a multithreaded BLAS in the test
    process would otherwise keep it from forking."""
    monkeypatch.setattr(study, "_other_threads_run", lambda: False)


def counted_forks(monkeypatch, cpus: int) -> list:
    """Give the process `cpus` CPUs; the returned list grows by one per fork."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child at all, reaped or not
        os.waitpid(-1, os.WNOHANG)


def run_fresh(code: str, **env) -> str:
    """Standard output of `python -c code` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout


def test_importing_the_cli_imports_no_process_machinery():
    assert run_fresh("import sys, hallcal.cli; print(sorted("
                     "{'multiprocessing', 'concurrent.futures'} & set(sys.modules)))") == "[]\n"


def test_one_blas_thread_leaves_the_cli_single_threaded():
    """So a study run as the benchmark runs it, with one BLAS thread, forks."""
    code = "import hallcal.cli; from hallcal import study; print(study._other_threads_run())"
    assert run_fresh(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1") == "False\n"


def test_cells_are_the_same_on_any_cpu_count(case, alone, monkeypatch):
    """1 CPU forks nothing, 2 fork one worker, 3 fork two workers (three
    processes, more than a 2-CPU host runs at once): the cells are equal bit
    for bit, in table order."""
    _, scenario, state = case
    runs = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forks = counted_forks(patch, cpus)
            cells = study.run_datavolume_study(scenario, state, FRACTIONS, pool_size=20, seed=3)
        assert len(forks) == cpus - 1
        runs.append([(c.fraction, c.surrogate, c.n_train, c.test_mae.hex()) for c in cells])
    assert runs[0] == runs[1] == runs[2]
    assert [cell[:2] for cell in runs[0]] == [(f, s) for f in FRACTIONS for s in study.SURROGATES]
    assert_no_child_left()


def test_a_process_running_another_thread_forks_nothing(case, monkeypatch):
    _, scenario, state = case
    forks = counted_forks(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        study.run_datavolume_study(scenario, state, (1.0,), pool_size=20, seed=3)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("fails_in_parent", [False, True], ids=["worker", "parent"])
def test_an_error_in_any_process_is_the_study_error(case, alone, tmp_path, monkeypatch, capsys,
                                                    fails_in_parent):
    """Every fit in one process raises; with the error in a worker, the
    parent's fits first wait until a worker has raised, so a worker surely
    takes a cell. The study ends as that error, exit 2, with every worker
    ended and reaped."""
    paths, _, _ = case
    parent = os.getpid()
    raised = multiprocessing.get_context("fork").Event()

    def failing(fit):
        def patched(*args):
            if (os.getpid() == parent) == fails_in_parent:
                raised.set()
                raise ObjectiveNonFiniteError("training loss is nan")
            if os.getpid() == parent:
                assert raised.wait(timeout=60)
            return fit(*args)
        return patched

    forks = counted_forks(monkeypatch, 2)
    monkeypatch.setattr(KnowledgeSurrogateModel, "fit", failing(KnowledgeSurrogateModel.fit))
    monkeypatch.setattr(VanillaSurrogateModel, "fit", failing(VanillaSurrogateModel.fit))
    monkeypatch.setattr(study, "train_trainable", failing(study.train_trainable))
    code = main(["study-datavolume", "--layout", str(paths["layout"]),
                 "--scenario", str(paths["scenario"]), "--state", str(paths["state"]),
                 "--pool-size", "20", "--fractions", ",".join(map(str, FRACTIONS)),
                 "--out-dir", str(tmp_path / "study")])
    assert code == 2
    assert capsys.readouterr().err == "error: training loss is nan\n"
    assert len(forks) == 1 and raised.is_set()
    assert not (tmp_path / "study" / "study.json").exists()
    assert_no_child_left()


def test_a_worker_that_dies_ends_the_study(case, alone, monkeypatch):
    """A worker killed partway (here it exits 9 in its first fit) cannot
    return its cell: the study raises instead of waiting for it."""
    _, scenario, state = case
    parent = os.getpid()
    died = multiprocessing.get_context("fork").Event()
    fit = VanillaSurrogateModel.fit

    def dying(model, dataset):
        if os.getpid() != parent:
            died.set()
            os._exit(9)
        assert died.wait(timeout=60)
        return fit(model, dataset)

    def waited_too_long(*_signal):
        raise TimeoutError("the study still waits for a dead worker's cell")

    forks = counted_forks(monkeypatch, 2)
    monkeypatch.setattr(VanillaSurrogateModel, "fit", dying)
    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="ended with exit code 9"):
            study.run_datavolume_study(scenario, state, FRACTIONS, pool_size=20, seed=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert_no_child_left()
