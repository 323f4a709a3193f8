"""CLI behavior: flags, config files, exit codes, artifact round trips."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcvv
from mcvv import cli
from mcvv.config import RunConfig, UsageError


TINY = ["--hw", "16", "--clip-len", "8", "--t", "4", "--h", "8", "--w", "8",
        "--d", "16", "--heads", "2", "--n-sp", "1", "--n-tp", "1",
        "--mlp-hidden", "16", "--frames-min", "24", "--frames-max", "40",
        "--mci", "3", "--nc", "2", "--batch-size", "4", "--max-steps", "2",
        "--l-fold", "2", "--noise", "0.02"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["gen-data", "--out", str(out), "--seed", "1"] + TINY) == 0
    return out


def test_config_file_roundtrip(tmp_path):
    cfg = RunConfig(mci=5, rho=0.25, loss="focal", augment=False)
    path = tmp_path / "run.cfg"
    cfg.write(path)
    loaded = RunConfig.from_file(path)
    assert loaded == cfg


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mci = 5\nbogus_key = 1\n")
    with pytest.raises(UsageError, match="bogus_key"):
        RunConfig.from_file(path)


def test_usage_error_exit_code():
    assert cli.main(["train", "--data", "/nonexistent"]) == cli.EXIT_USAGE  # no --out
    assert cli.main(["kfold", "--data", "/nonexistent", "--out", "x.json"]) == cli.EXIT_USAGE


def test_gen_data_writes_manifest(dataset):
    manifest = dataset / "manifest.csv"
    assert manifest.exists()
    rows = list(csv.DictReader(open(manifest)))
    assert {r["subject_id"] for r in rows} >= {"mci00", "nc00"}
    assert set(rows[0]) == {"subject_id", "clip_path", "label", "clip_index"}


def test_train_eval_roundtrip(dataset, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["train", "--data", str(dataset), "--fold", "0",
                   "--out", str(out), "--seed", "1"] + TINY)
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["d"] == 16
    assert "accuracy" in report["report"]
    assert (out / "params.csv").exists()
    assert (out / "config.cfg").exists()

    result = tmp_path / "eval.json"
    rc = cli.main(["eval", "--checkpoint", str(out), "--data", str(dataset),
                   "--out", str(result)])
    assert rc == 0
    payload = json.loads(result.read_text())
    assert payload["report"]["n_subjects"] == 5


def test_kfold_byte_identical_reports(dataset, tmp_path):
    args = ["kfold", "--data", str(dataset), "--seed", "3"] + TINY
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert len(payload["folds"]) == 2
    assert payload["pooled"]["n_subjects"] == 5


def test_config_flag_overrides_file(dataset, tmp_path):
    cfg_file = tmp_path / "base.cfg"
    RunConfig(seed=1, mci=3, nc=2).write(cfg_file)
    out = tmp_path / "o.json"
    rc = cli.main(["kfold", "--data", str(dataset), "--config", str(cfg_file),
                   "--out", str(out), "--seed", "9"] + TINY)
    assert rc == 0
    assert json.loads(out.read_text())["config"]["seed"] == 9


def test_ablate_grid_shape(dataset, tmp_path):
    out = tmp_path / "grid.csv"
    rc = cli.main(["ablate", "--data", str(dataset), "--out", str(out),
                   "--seeds", "1"] + TINY)
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 18
    combos = {(r["t"], r["head"], r["loss"]) for r in rows}
    assert len(combos) == 18
    assert {r["t"] for r in rows} == {"2", "4", "8"}


def test_gradcheck_smoke_runs_quickly():
    # the full gradcheck lives in the acceptance suite; here only flag parsing
    parser = cli.build_parser()
    args = parser.parse_args(["gradcheck", "--seed", "2"])
    assert args.seed == 2 and args.func is cli.cmd_gradcheck


def test_gradcheck_exit_codes(monkeypatch):
    monkeypatch.setattr(cli, "full_model_gradcheck", lambda seed: (5e-5, 4702))
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    monkeypatch.setattr(cli, "full_model_gradcheck", lambda seed: (5e-3, 4702))
    assert cli.main(["gradcheck"]) == cli.EXIT_VERIFY


def test_kfold_39_subjects_yields_13_folds(tmp_path):
    data = tmp_path / "d39"
    flags = ["--hw", "8", "--clip-len", "8", "--t", "4", "--h", "4", "--w", "4",
             "--d", "8", "--heads", "2", "--n-sp", "1", "--n-tp", "1",
             "--mlp-hidden", "8", "--frames-min", "16", "--frames-max", "24",
             "--batch-size", "4", "--max-steps", "1", "--l-fold", "3",
             "--seed", "2"]
    assert cli.main(["gen-data", "--out", str(data), "--mci", "22",
                     "--nc", "17"] + flags) == 0
    out = tmp_path / "r.json"
    assert cli.main(["kfold", "--data", str(data), "--out", str(out),
                     "--mci", "22", "--nc", "17"] + flags) == 0
    payload = json.loads(out.read_text())
    assert len(payload["folds"]) == 13
    assert payload["pooled"]["n_subjects"] == 39


def test_missing_dataset_is_usage_error(tmp_path):
    rc = cli.main(["kfold", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "r.json")])
    assert rc == cli.EXIT_USAGE


def test_cli_import_does_not_load_scipy_ndimage():
    # augmentation is plain numpy; loading scipy.ndimage would cost every
    # command its import time
    src = str(Path(mcvv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, mcvv.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
