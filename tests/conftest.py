"""Shared fixtures: generated corpora and trained model bundles.

Everything is seeded, so fixture contents are identical across runs; the
session scope just avoids re-training for every test module.
"""

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field

import pytest

from tickettriage import imaging, training
from tickettriage.bundle import ModelBundle
from tickettriage.corpusgen import generate_corpus
from tickettriage.training import train_bundle

# one line per release criterion, filled in by tests/test_acceptance.py;
# echoed after the run so the lines survive output capture
acceptance_report_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Small corpus for component and pipeline tests."""
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(str(out), seed=3, count=400, image_only_fraction=0.4)
    return str(out)


@dataclass
class TrainingRun:
    """One train_bundle as seen from the calling process."""
    bundle: ModelBundle | None = None
    calls: Counter = field(default_factory=Counter)  # mining-stage calls made here
    filter_inputs: tuple = ()    # (X, y) given to train_filter_model
    category_inputs: tuple = ()  # (X_cat, app labels, OS labels) given to train_category_model
    most_children: int = 0       # most live child processes at any scene rendered here


def spied_training(corpus_dir: str, seed: int, cpus=None) -> TrainingRun:
    """train_bundle with spies on the window-mining stages; cpus, if given,
    replaces the process's CPU affinity. Forked workers inherit the spies,
    but what they record stays in their own memory."""
    run = TrainingRun()

    def counted(owner, name):
        fn = getattr(owner, name)

        def spy(*args, **kwargs):
            run.calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    def captured(fn, attr):
        def spy(*args):
            setattr(run, attr, args[:-1])  # the last argument is the seed
            return fn(*args)
        return spy

    render = training.render_scene

    def render_spy(spec):
        run.most_children = max(run.most_children, len(multiprocessing.active_children()))
        return render(spec)

    with pytest.MonkeyPatch.context() as mp:
        if cpus is not None:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        for owner, name in ((training, "window_features"), (imaging, "detect_contour_boxes"),
                            (imaging, "detect_edge_boxes")):
            mp.setattr(owner, name, counted(owner, name))
        mp.setattr(training, "train_filter_model",
                   captured(training.train_filter_model, "filter_inputs"))
        mp.setattr(training, "train_category_model",
                   captured(training.train_category_model, "category_inputs"))
        mp.setattr(training, "render_scene", render_spy)
        run.bundle = train_bundle(corpus_dir, seed=seed)
    return run


@pytest.fixture(scope="session")
def training_run(corpus_dir):
    """The session bundle's training, on every CPU of the process's affinity."""
    return spied_training(corpus_dir, seed=1)


@pytest.fixture(scope="session")
def one_cpu_training_run(corpus_dir):
    """The same training with the affinity cut to one CPU."""
    return spied_training(corpus_dir, seed=1, cpus=[min(os.sched_getaffinity(0))])


@pytest.fixture(scope="session")
def bundle(training_run):
    return training_run.bundle


@pytest.fixture(scope="session")
def bundle_path(bundle, tmp_path_factory):
    from tickettriage.bundle import save_bundle
    path = tmp_path_factory.mktemp("bundle") / "models.bin"
    save_bundle(bundle, str(path))
    return str(path)


@pytest.fixture(scope="session")
def uplift_corpus_dir(tmp_path_factory):
    """2000-ticket corpus where 40% of tickets carry their discriminative
    entities only inside the attached screenshot."""
    out = tmp_path_factory.mktemp("uplift_corpus")
    generate_corpus(str(out), seed=7, count=2000, image_only_fraction=0.4)
    return str(out)


@pytest.fixture(scope="session")
def uplift_bundle(uplift_corpus_dir):
    return train_bundle(uplift_corpus_dir, seed=0)
