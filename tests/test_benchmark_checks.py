"""The benchmark's output checks pass on a tiny `mcvv train` and `mcvv eval`.

perfbench/unit.py runs each command through `cli.main`, keeps the arguments
and result of `train.train_fold` or `train.evaluate_subjects`, and hands them
to perfbench/checks.py, as does run.py with the files the command wrote. A
change that breaks what those checks read fails every benchmark unit; this
test catches it at unit-test speed.
"""

import importlib
from pathlib import Path

import pytest

from mcvv import cli
from mcvv import train as TR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# 4 subjects of 4 clips each; fold 0 of 2 leaves whole batches of 4 to train on
TINY = ["--hw", "16", "--clip-len", "8", "--t", "4", "--h", "8", "--w", "8",
        "--d", "16", "--heads", "2", "--n-sp", "1", "--n-tp", "1",
        "--mlp-hidden", "16", "--frames-min", "32", "--frames-max", "32",
        "--mci", "2", "--nc", "2", "--batch-size", "4", "--max-steps", "2",
        "--l-fold", "2"]


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    return checks


def _capture(monkeypatch, attr: str) -> dict:
    """Keep the arguments and result of the next call of ``train.<attr>``."""
    fn, store = getattr(TR, attr), {}

    def captured(*args):
        store["args"] = args
        store["result"] = fn(*args)
        return store["result"]

    monkeypatch.setattr(TR, attr, captured)
    return store


def test_train_and_eval_pass_the_benchmark_checks(checks, tmp_path, monkeypatch):
    data, run = tmp_path / "data", tmp_path / "run"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "3"] + TINY) == 0

    fold = _capture(monkeypatch, "train_fold")
    assert cli.main(["train", "--data", str(data), "--fold", "0", "--out", str(run)]
                    + TINY) == 0
    problems, figures = checks.train_problems(fold)
    assert problems == []
    assert figures["clips"] == 2 * 4
    assert checks.file_problems("train", run, figures["params_sha256"]) == []

    evaluated = _capture(monkeypatch, "evaluate_subjects")
    scored = tmp_path / "scored"
    assert cli.main(["eval", "--checkpoint", str(run), "--data", str(data),
                     "--out", str(scored / "eval.json")]) == 0
    problems, figures = checks.eval_problems(evaluated)
    assert problems == []
    assert figures["clips"] == 16
    assert checks.file_problems("eval", scored, None) == []


def test_every_benchmark_span_has_a_target_that_resolves(monkeypatch):
    # resolved as `Tracer.install` resolves them, without wrapping anything: a
    # span none of whose targets resolves loses its metrics, and the coarse
    # spans mark `setup_s` and `clips_per_s`
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import COARSE, TARGETS

    def resolves(module_name, attr):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        return owner is not None

    spans = {name for _, _, name in TARGETS}
    assert set(COARSE) <= spans
    found = {name for module_name, attr, name in TARGETS if resolves(module_name, attr)}
    assert sorted(spans - found) == []
