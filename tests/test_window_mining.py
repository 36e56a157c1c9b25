"""Window-filter mining across CPUs against the serial loop it replaced
(training_reference.py), and how it fails and cleans up."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import training_reference
from tickettriage import training
from tickettriage.cli import main


@pytest.fixture(scope="module")
def reference():
    return training_reference._window_training_set(1)


def _assert_same_mining(run, reference):
    X, y, X_cat, app_labels, os_labels = reference
    got_X, got_y = run.filter_inputs
    got_X_cat, got_app, got_os = run.category_inputs
    assert np.array_equal(got_X, X)
    assert np.array_equal(got_y, y)
    assert np.array_equal(got_X_cat, X_cat)
    assert got_app == app_labels
    assert got_os == os_labels


def test_mining_on_every_cpu_matches_the_serial_loop(training_run, reference):
    _assert_same_mining(training_run, reference)
    # the workers were alive while this process mined its share, and are gone
    assert training_run.most_children == len(os.sched_getaffinity(0)) - 1
    assert multiprocessing.active_children() == []


def test_mining_on_one_cpu_matches_the_serial_loop_and_starts_no_worker(
        one_cpu_training_run, reference):
    _assert_same_mining(one_cpu_training_run, reference)
    assert one_cpu_training_run.most_children == 0
    assert multiprocessing.active_children() == []


def _fail_in_workers(monkeypatch, fail):
    """Two CPUs and six scenes; rendering a scene in a worker calls fail()."""
    parent = os.getpid()
    render = training.render_scene

    def render_or_fail(spec):
        if os.getpid() != parent:
            fail()
        return render(spec)

    monkeypatch.setattr(training, "render_scene", render_or_fail)
    monkeypatch.setattr(training, "_SCENES", 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    def fail():
        raise LookupError("no such scene")

    _fail_in_workers(monkeypatch, fail)
    with pytest.raises(LookupError, match="no such scene"):
        training._window_training_set(1)
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_train_with_exit_3(monkeypatch, corpus_dir, tmp_path, capsys):
    _fail_in_workers(monkeypatch, lambda: os._exit(1))
    out = tmp_path / "m.bin"
    assert main(["train", "--corpus", corpus_dir, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("failed: a window-mining worker died")
    assert not out.exists()
    assert multiprocessing.active_children() == []


_HANGING_WORKER = """
import os, sys, time
from tickettriage import training
parent = os.getpid()
render = training.render_scene

def render_or_hang(spec):
    if os.getpid() != parent:
        with open(sys.argv[1], "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(60)
    return render(spec)

training.render_scene = render_or_hang
training._SCENES = 6
os.sched_getaffinity = lambda pid: {0, 1}
training._window_training_set(1)
"""


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_a_worker_dies_with_the_trainer(tmp_path):
    pid_file = tmp_path / "worker.pid"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(training.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    trainer = subprocess.Popen([sys.executable, "-c", _HANGING_WORKER, str(pid_file)], env=env)
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() or not pid_file.read_text():
            assert trainer.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        worker = int(pid_file.read_text())
    finally:
        trainer.kill()
        trainer.wait()
    deadline = time.monotonic() + 10
    try:
        while not _gone(worker):
            assert time.monotonic() < deadline, f"worker {worker} outlived the trainer"
            time.sleep(0.05)
    finally:
        if not _gone(worker):
            os.kill(worker, signal.SIGKILL)
