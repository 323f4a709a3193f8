"""CLI behavior: flags, config files, exit codes, artifact round trips."""

import csv
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcvv
from mcvv import cli
from mcvv import data as D
from mcvv import train as TR
from mcvv.config import RunConfig, UsageError
from mcvv.model import Model


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


@pytest.fixture
def no_model(monkeypatch):
    """Fails the test if a model is built: bad input must stop the run first."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a model was built before the input was checked")

    monkeypatch.setattr(Model, "__init__", refuse)


def test_config_file_roundtrip(tmp_path):
    cfg = RunConfig(mci=5, rho=0.25, loss="focal", augment=False)
    path = tmp_path / "run.cfg"
    cfg.write(path)
    loaded = RunConfig.from_file(path)
    assert loaded == cfg


@pytest.mark.parametrize("writer", ["report", "config", "grid"])
def test_failed_write_keeps_the_old_file(writer, dataset, tmp_path, monkeypatch):
    path = tmp_path / "out"
    grid = cli.build_parser().parse_args(["ablate", "--data", str(dataset),
                                          "--out", str(path)] + TINY)
    write = {"report": lambda: cli._write_json(path, {"accuracy": 1.0}),
             "config": lambda: RunConfig(seed=5).write(path),
             "grid": lambda: grid.func(grid)}[writer]
    monkeypatch.setattr(cli, "_ablate_cell", lambda cell, cohort, seeds: {
        "t": cell.t, "head": cell.head, "loss": cell.loss,
        "subject_accuracy": 1.0, "clip_accuracy": 1.0, "f1": 1.0})
    path.write_text("old\n")
    real_write_text = Path.write_text

    def disk_full_halfway(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full_halfway)
    with pytest.raises(OSError, match="No space"):
        write()
    monkeypatch.setattr(Path, "write_text", real_write_text)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    write()
    assert path.read_text() != "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mci = 5\nbogus_key = 1\n")
    with pytest.raises(UsageError, match="bogus_key"):
        RunConfig.from_file(path)


def test_config_key_set_twice_is_one_line_usage_error(dataset, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nmci = 3\n# comment lines count too\nseed = 2\n")
    with pytest.raises(UsageError, match=re.escape(f"{path}:4: key 'seed' already set on line 1")):
        RunConfig.from_file(path)
    rc = cli.main(["train", "--data", str(dataset), "--config", str(path),
                   "--out", str(tmp_path / "out")] + TINY)
    assert rc == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert str(path) in lines[0] and "'seed'" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["--config", "checkpoint"])
def test_config_file_that_is_not_utf8_is_one_line_usage_error(source, dataset, checkpoint,
                                                              tmp_path, capsys, no_model):
    out = tmp_path / "out"
    if source == "--config":
        path = tmp_path / "run.cfg"
        argv = ["train", "--data", str(dataset), "--config", str(path), "--out", str(out)] + TINY
    else:
        ckpt = tmp_path / "ckpt"
        shutil.copytree(checkpoint, ckpt)
        path = ckpt / "config.cfg"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(dataset), "--out", str(out)]
    path.write_bytes(b"\xff\xfe" + "seed = 1\n".encode("utf-16-le"))   # UTF-16, with its BOM
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: cannot read config file {path}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]
    assert not out.exists()


def test_usage_error_exit_code():
    assert cli.main(["train", "--data", "/nonexistent"]) == cli.EXIT_USAGE  # no --out
    assert cli.main(["kfold", "--data", "/nonexistent", "--out", "x.json"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv,key", [
    (["train", "--batch-size", "1"], "batch_size"),
    (["train", "--loss", "bogus"], "loss"),
    (["kfold", "--head", "bogus"], "head"),
    (["gen-data", "--rho", "1.5"], "rho"),
    (["train", "--d", "12"], None),
    (["train", "--heads", "3"], "heads"),
    (["train", "--heads", "0"], "heads"),
    (["train", "--t", "32"], None),
    (["kfold", "--alpha", "2"], "alpha"),
    (["kfold", "--gamma", "-1"], "gamma"),
    (["kfold", "--fd-weight", "-1"], "fd_weight"),
    (["ablate", "--cycle-steps", "1"], "cycle_steps"),
    (["ablate", "--l-fold", "0"], "l_fold"),
    (["ablate", "--head", "nomc", "--d", "12"], None),
    (["train", "--epochs", "0"], "epochs"),
    (["kfold", "--max-steps", "-1"], "max_steps"),
    (["train", "--max-steps", "100000000000000000000"], "max_steps"),
    (["gen-data", "--channels", "0"], "channels"),
    (["gen-data", "--hw", "0"], "hw"),
    (["gen-data", "--noise", "-1"], "noise"),
    (["gen-data", "--clip-len", "0"], "clip_len"),
    (["gen-data", "--mci", "0"], "mci"),
    (["gen-data", "--seed", "-1"], "seed"),
    (["train", "--seed", "-1"], "seed"),
    (["kfold", "--seed", "-1"], "seed"),
    (["ablate", "--seed", "-1"], "seed"),
    (["gradcheck", "--seed", "-1"], "seed"),
    (["gen-data", "--noise", "nan"], "noise"),
    (["train", "--max-lr", "inf"], "max_lr"),
    (["ablate", "--seeds", "0"], "seeds"),
    (["train", "--epsilon", "-5"], "epsilon"),
    (["train", "--base-lr", "-1"], "base_lr"),
    (["kfold", "--max-lr", "-1"], "max_lr"),
    (["train", "--mlp-hidden", "0"], "mlp_hidden"),
    (["train", "--mlp-hidden", "4611686018427387904"], "mlp_hidden"),
], ids=["batch-size", "loss", "head", "rho", "d", "heads", "heads-zero", "t", "alpha",
        "gamma", "fd-weight", "cycle-steps", "l-fold", "ablate-mc-cell", "epochs",
        "max-steps", "max-steps-too-large", "channels", "hw", "noise", "clip-len", "mci",
        "gen-data-seed", "train-seed", "kfold-seed", "ablate-seed", "gradcheck-seed", "noise-nan",
        "max-lr-inf", "ablate-seeds", "epsilon-negative", "base-lr-negative",
        "max-lr-negative", "mlp-hidden-zero", "mlp-hidden-too-large"])
def test_bad_config_value_is_one_line_usage_error(argv, key, dataset, tmp_path, capsys):
    """``key``, when given, is the run key the message must name."""
    command, *flags = argv
    if command != "gradcheck":   # gradcheck takes no data, output or run keys
        flags = ["--out", str(tmp_path / "out")] + TINY + flags
    if command not in ("gen-data", "gradcheck"):
        flags = ["--data", str(dataset)] + flags
    assert cli.main([command] + flags) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    if key is not None:
        assert re.search(rf"\b{key}\b", lines[0]), lines[0]


def _argv_on_data(command, data, flags, tmp_path):
    """``command`` on ``data`` with the TINY keys plus ``flags``; eval reads
    them from a checkpoint's config.cfg, which is all it reads before the data."""
    out = ["--out", str(tmp_path / "out")]
    if command != "eval":
        return [command, "--data", str(data)] + out + TINY + flags
    pairs = TINY + flags
    cfg = RunConfig()
    cfg.apply({k[2:].replace("-", "_"): v for k, v in zip(pairs[::2], pairs[1::2])})
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    cfg.write(ckpt / "config.cfg")
    return ["eval", "--checkpoint", str(ckpt), "--data", str(data)] + out


def _spoil(dataset, data, case) -> str:
    """Copy ``dataset`` to ``data`` with the defect ``case`` names; return
    the text the error line must hold. Lines 2-4 of the manifest are
    mci00's first three clips."""
    shutil.copytree(dataset, data)
    manifest = data / "manifest.csv"
    header, *rows = manifest.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    if case == "last-clip":   # a clip the first one does not stand for
        D.write_tensor_file(data / rows[-1][1], np.zeros((8, 32, 32, 3)))
        return rows[-1][1]
    if case == "label-column":
        header, names = header.replace("label", "lab"), "manifest.csv: header lacks 'label'"
    elif case == "subject-column":
        header = header.replace("subject_id", "subject")
        names = "manifest.csv: header lacks 'subject_id'"
    elif case == "clip-index":
        rows[1][3], names = "x", "manifest.csv, line 3: clip_index 'x' is not an integer"
    elif case == "short-row":
        rows[1], names = rows[1][:3], "manifest.csv, line 3: no clip_index"
    elif case == "two-labels":
        rows[1][2], names = "NC", "manifest.csv, line 3: subject 'mci00' is labelled NC"
    elif case == "nul-path":   # open() refuses such a path with a ValueError
        rows[1][1] += "\0"
        names = f"manifest.csv, line 3: clip_path {rows[1][1]!r} holds a NUL byte"
    elif case == "not-utf8":
        rows[1][0] = "mci\xff"   # written as the one byte 0xff, which no UTF-8 text holds
        names = "manifest.csv: 'utf-8' codec can't decode byte 0xff in position"
    elif case == "long-field":
        rows[1][0] = "m" * 200_000
        names = "manifest.csv, line 3: field larger than field limit"
    else:   # two rows name one clip file
        rows[2][1], names = rows[0][1], "manifest.csv, lines 2 and 4: both name clip"
    manifest.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n",
                        encoding="latin-1")
    return names


MANIFEST_DEFECTS = ["label-column", "subject-column", "clip-index", "short-row", "two-labels",
                    "same-clip", "nul-path", "not-utf8", "long-field"]


@pytest.mark.parametrize("command,case", [
    ("train", "empty"), ("kfold", "empty"), ("ablate", "empty"), ("eval", "empty"),
    ("train", "l-fold"), ("kfold", "l-fold"), ("ablate", "l-fold"),
    ("train", "one-fold"), ("kfold", "one-fold"), ("ablate", "one-fold"),
    ("train", "hw"), ("kfold", "hw"), ("ablate", "hw"), ("eval", "hw"),
    ("train", "channels"), ("eval", "channels"),
    ("train", "last-clip"), ("eval", "last-clip"),
] + [(command, case) for case in MANIFEST_DEFECTS
     for command in ("train", "kfold", "ablate", "eval")])
def test_data_that_cannot_fit_the_run_is_one_line_usage_error(command, case, dataset,
                                                              tmp_path, capsys, no_model):
    data, flags, names = dataset, [], ".mcvv"
    if case == "empty":
        data, names = tmp_path / "empty", "manifest.csv"
        data.mkdir()
        (data / "manifest.csv").write_text("subject_id,clip_path,label,clip_index\n")
    elif case in ("l-fold", "one-fold"):   # the 5 subjects fill no fold of 9, one of 3
        flags, names = ["--l-fold", "9" if case == "l-fold" else "3"], "manifest.csv"
    elif case == "hw":
        flags = ["--hw", "32"]                              # the clips are 16x16
    elif case == "channels":
        flags = ["--channels", "1"]                         # the clips have 3 channels
    else:
        data = tmp_path / "data"
        names = _spoil(dataset, data, case)
    assert cli.main(_argv_on_data(command, data, flags, tmp_path)) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert names in lines[0], lines[0]
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def long_dataset(tmp_path_factory):
    # 10-frame 20x20 clips: TINY's 4x8x8 cubes cut them as they cut 8-frame
    # 16x16 clips, with trailing frames and pixels that fill no cube
    out = tmp_path_factory.mktemp("long")
    argv = ["gen-data", "--out", str(out), "--seed", "1"] + TINY + ["--clip-len", "10",
                                                                   "--hw", "20"]
    assert cli.main(argv) == 0
    return out


def test_clips_with_trailing_frames_and_pixels_fit(long_dataset, tmp_path):
    ckpt = tmp_path / "ckpt"
    assert cli.main(["train", "--data", str(long_dataset), "--out", str(ckpt)]
                    + TINY) == cli.EXIT_OK
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(long_dataset),
                     "--out", str(tmp_path / "eval.json")]) == cli.EXIT_OK


def test_clips_of_one_batch_may_differ_in_trailing_frames(tmp_path):
    # one clip gains a 17th frame, which fills no 2-frame cube: train and eval
    # cut it back to 16 frames, so every output equals that of the cohort
    # without the extra frame
    gen = ["--mci", "2", "--nc", "2", "--hw", "16", "--clip-len", "16",
           "--frames-min", "32", "--frames-max", "32", "--seed", "1"]
    run = ["--hw", "16", "--clip-len", "16", "--t", "2", "--h", "4", "--w", "4", "--d", "16",
           "--heads", "2", "--mlp-hidden", "16", "--l-fold", "1", "--batch-size", "4",
           "--max-steps", "3"]
    outputs = {}
    for name in ("cut", "long"):
        data = tmp_path / name
        assert cli.main(["gen-data", "--out", str(data)] + gen) == cli.EXIT_OK
        if name == "long":
            clip = data / D.Cohort(data).records[1].clip_path
            frames = D.read_tensor_file(clip)
            D.write_tensor_file(clip, np.concatenate([frames, frames[-1:] * 0.5]))
        ckpt, report = tmp_path / f"ckpt-{name}", tmp_path / f"eval-{name}.json"
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt)] + run) == cli.EXIT_OK
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(report)]) == cli.EXIT_OK
        outputs[name] = [report.read_bytes()] + [
            path.read_bytes() for path in sorted(ckpt.rglob("*")) if path.is_file()]
    assert outputs["long"] == outputs["cut"]


def test_fold_training_on_one_clip_is_one_line_usage_error(tmp_path, capsys, no_model):
    # two subjects of one clip each: at l_fold 1 each fold trains on one
    # clip, which makes no batch, so the run would train no step
    data, out = tmp_path / "data", tmp_path / "run"
    assert cli.main(["gen-data", "--out", str(data), "--mci", "1", "--nc", "1",
                     "--frames-min", "16", "--frames-max", "16", "--hw", "16"]) == cli.EXIT_OK
    capsys.readouterr()
    run = ["--hw", "16", "--t", "4", "--h", "8", "--w", "8", "--d", "16", "--heads", "2",
           "--mlp-hidden", "16", "--l-fold", "1"]
    assert cli.main(["train", "--data", str(data), "--out", str(out)] + run) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "usage error: fold 0 trains on 1 clip(s), fewer than a batch's 2"]
    assert not out.exists()


def test_ablate_checks_the_fit_of_every_t(long_dataset, tmp_path, capsys):
    # t=4 and t=8 cut 10 frames as they cut 8, but t=2 makes 5 cubes, not 4
    argv = _argv_on_data("ablate", long_dataset, [], tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert ".mcvv" in lines[0] and "2x8x8 cubes" in lines[0]
    assert not (tmp_path / "out").exists()


def test_gen_data_checks_cohort_keys_only(tmp_path):
    # 8x8 frames are too small for the default 16x16 cubes, but gen-data
    # makes no model, so only the cohort keys are checked
    argv = ["gen-data", "--out", str(tmp_path / "d"), "--hw", "8", "--mci", "1", "--nc", "1",
            "--frames-min", "16", "--frames-max", "16"]
    assert cli.main(argv) == cli.EXIT_OK


def test_eval_rejects_bad_checkpoint_config(dataset, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    RunConfig(heads=3).write(ckpt / "config.cfg")
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "eval.json")])
    assert rc == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "config.cfg" in lines[0] and "heads=3" in lines[0]


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert cli.main(["train", "--data", str(dataset), "--out", str(out)] + TINY) == 0
    return out


@pytest.mark.parametrize("command", ["train", "kfold", "ablate", "eval"])
def test_unknown_manifest_label_is_one_line_usage_error(command, dataset, checkpoint,
                                                        tmp_path, capsys, no_model):
    # the manifest names no clip that exists: a read would be an i/o error
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.csv").write_text("subject_id,clip_path,label,clip_index\n"
                                       "a,clips/a_0.mcvv,NC,0\n"
                                       "b,clips/b_0.mcvv,XYZ,0\n")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                "--out", str(tmp_path / "out")]
    else:
        argv = [command, "--data", str(data), "--out", str(tmp_path / "out")] + TINY
    assert cli.main(argv) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    assert "manifest.csv, line 3: unknown label 'XYZ'" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["another-config", "missing-parameter", "extra-parameter",
                                  "non-finite", "four-branch-files"])
def test_eval_checkpoint_that_cannot_load_is_one_line_usage_error(case, checkpoint, dataset,
                                                                  tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoint, ckpt)
    params = ckpt / "params"
    if case == "another-config":
        cfg = RunConfig.from_file(ckpt / "config.cfg")
        cfg.apply({"d": "32", "mlp_hidden": "32"})
        cfg.write(ckpt / "config.cfg")
        names = "'embed.proj'"
    elif case == "missing-parameter":
        (params / "head.out_b.mcvv").unlink()
        names = "'head.out_b' missing from checkpoint"
    elif case == "extra-parameter":
        shutil.copy(params / "head.out_b.mcvv", params / "head.out_c.mcvv")
        names = "'head.out_c' not in model"
    elif case == "non-finite":   # read_tensor_file refuses it, naming its file
        D.write_tensor_file(params / "head.out_b.mcvv", np.full(2, np.nan))
        names = None
    else:
        # the layout of releases that stored each branch as its own linear
        for wb in "wb":
            stacked = params / f"head.branch_{wb}.mcvv"
            blocks = np.split(D.read_tensor_file(stacked), 4, axis=-1)
            for i, arr in enumerate(blocks):
                D.write_tensor_file(params / f"head.branch{i}_{wb}.mcvv", arr)
            stacked.unlink()
        names = "'head.branch_w' missing from checkpoint"
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                   "--out", str(tmp_path / "eval.json")])
    assert rc == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    if names is None:
        assert lines == [f"usage error: {params / 'head.out_b.mcvv'}: non-finite values"]
    else:
        assert len(lines) == 1 and lines[0].startswith(f"usage error: {ckpt}: ")
        assert names in lines[0]
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("case", ["truncated", "bad-magic"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_corrupt_last_clip_is_one_line_io_error_before_any_model(command, case, dataset,
                                                                 checkpoint, tmp_path,
                                                                 capsys, no_model):
    # the gate reads every clip's header, so the last clip, which a run
    # would read last, stops it before a model is built
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    with open(data / "manifest.csv", newline="") as fh:
        clip = data / list(csv.DictReader(fh))[-1]["clip_path"]
    raw = clip.read_bytes()
    clip.write_bytes(raw[:-10] if case == "truncated" else b"XXXX" + raw[4:])
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                "--out", str(out)]
    else:
        argv = ["train", "--data", str(data), "--out", str(out)] + TINY
    assert cli.main(argv) == cli.EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: ")
    tail = "truncated payload" if case == "truncated" else "bad magic b'XXXX'"
    assert lines[0].endswith(f"{clip.name}: {tail}"), lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_clip_is_one_line_usage_error(command, dataset, checkpoint, tmp_path,
                                                 capsys):
    # no header shows a clip's values, so a run refuses the first clip it reads
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    clips = sorted((data / "clips").iterdir())
    for clip in clips:
        frames = D.read_tensor_file(clip)
        frames[-1, -1, -1, -1] = np.nan
        D.write_tensor_file(clip, frames)
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                "--out", str(out)]
    else:
        argv = ["train", "--data", str(data), "--out", str(out)] + TINY
    assert cli.main(argv) == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ")
    named, _, tail = lines[0][len("usage error: "):].partition(": ")
    assert Path(named) in clips and tail == "non-finite values", lines[0]
    assert not out.exists()


def test_run_whose_values_go_non_finite_is_one_line_exit_2(dataset, tmp_path, capsys):
    # the first step's update at lr 1e30 overflows the second step's forward
    out = tmp_path / "out"
    argv = ["train", "--data", str(dataset), "--out", str(out), "--base-lr", "1e30",
            "--max-lr", "1e30"] + TINY
    assert cli.main(argv) == cli.EXIT_VERIFY
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(r"numeric error: non-finite .* '[\w.]+'", lines[0]), lines[0]
    assert not out.exists()


def test_eval_whose_projection_overflows_is_one_line_exit_2(dataset, checkpoint, tmp_path):
    # The projection runs in an evaluation worker, which must keep main's numpy
    # error state, or numpy's overflow warning reaches stderr before the error.
    # A subprocess, so stderr is what a user sees.
    ckpt = tmp_path / "ckpt"
    shutil.copytree(checkpoint, ckpt)
    proj = ckpt / "params" / "embed.proj.mcvv"
    D.write_tensor_file(proj, np.full_like(D.read_tensor_file(proj), 3e37))
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "mcvv", "eval", "--checkpoint", str(ckpt),
                          "--data", str(dataset), "--out", str(out)],
                         env=_src_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == cli.EXIT_VERIFY, run.stderr
    assert run.stderr.splitlines() == ["numeric error: non-finite values produced by 'linear'"]
    assert not out.exists()


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
    assert (out / "params" / "embed.proj.mcvv").exists()
    assert (out / "config.cfg").exists()

    result = tmp_path / "eval.json"
    rc = cli.main(["eval", "--checkpoint", str(out), "--data", str(dataset),
                   "--out", str(result)])
    assert rc == 0
    payload = json.loads(result.read_text())
    assert payload["report"]["n_subjects"] == 5


def test_failed_save_keeps_the_old_report(dataset, tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    argv = ["train", "--data", str(dataset), "--out", str(out)] + TINY
    assert cli.main(argv + ["--seed", "1"]) == cli.EXIT_OK
    first = {name: (out / name).read_bytes() for name in ("report.json", "config.cfg")}

    def disk_full(path, arr):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(D, "write_tensor_file", disk_full)
    assert cli.main(argv + ["--seed", "2"]) == cli.EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert {name: (out / name).read_bytes() for name in first} == first


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


def _cores(monkeypatch, n):
    """`fork_map` sees ``n`` cores, so it maps over up to ``n`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_ablate_workers_write_same_csv(dataset, tmp_path, monkeypatch):
    # cells cross the process pool as RunConfig objects
    outs = [tmp_path / f"grid{n}.csv" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        _cores(monkeypatch, n)
        assert cli.main(["ablate", "--data", str(dataset), "--out", str(out)] + TINY) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_kfold_writes_same_report_at_any_core_count(dataset, tmp_path, monkeypatch):
    # folds cross the process pool as FoldResults, models included
    outs = [tmp_path / f"kfold{n}.json" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        _cores(monkeypatch, n)
        argv = ["kfold", "--data", str(dataset), "--out", str(out), "--seed", "3"] + TINY
        assert cli.main(argv) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_ablate_forks_no_more_workers_than_cells(dataset, tmp_path, monkeypatch):
    # no cell trains, and the fork stub refuses, rather than starts, a
    # worker past the 18 cells
    monkeypatch.setattr(cli, "_ablate_cell", lambda cell, cohort, seeds: {
        "t": cell.t, "head": cell.head, "loss": cell.loss,
        "subject_accuracy": 1.0, "clip_accuracy": 1.0, "f1": 1.0})
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        if len(forks) > 17:
            raise OSError("fork past the cap")
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _cores(monkeypatch, 100000)
    out = tmp_path / "grid.csv"
    assert cli.main(["ablate", "--data", str(dataset), "--out", str(out)] + TINY) == 0
    assert len(forks) == 17   # the caller runs the 18th share itself
    assert len(list(csv.DictReader(open(out)))) == 18


def test_eval_leaves_no_process_behind(dataset, checkpoint, tmp_path):
    # eval forks its workers; once it exits, none of its session may run
    out = tmp_path / "eval.json"
    run = subprocess.Popen([sys.executable, "-m", "mcvv", "eval", "--checkpoint", str(checkpoint),
                            "--data", str(dataset), "--out", str(out)],
                           env=_src_env(), start_new_session=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    assert json.loads(out.read_text())["report"]["n_subjects"] == 5
    with pytest.raises(ProcessLookupError):
        os.killpg(run.pid, 0)


def test_train_leaves_no_process_behind(dataset, tmp_path):
    # train forks its loader and evaluation's workers; once it exits, none
    # of its session may run
    out = tmp_path / "run"
    run = subprocess.Popen([sys.executable, "-m", "mcvv", "train", "--data", str(dataset),
                            "--out", str(out)] + TINY,
                           env=_src_env(), start_new_session=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    assert json.loads((out / "report.json").read_text())["report"]["fold"] == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(run.pid, 0)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_work(monkeypatch):
    """Record each training step and each evaluation; neither runs."""
    ran = []

    def step(*args):
        ran.append("train_step")
        raise AssertionError("a training step ran")

    def evaluate(*args):
        ran.append("evaluate_subjects")
        raise AssertionError("subjects were scored")

    monkeypatch.setattr(TR, "train_step", step)
    monkeypatch.setattr(TR, "evaluate_subjects", evaluate)
    return ran


@pytest.mark.parametrize("command", ["train", "kfold", "ablate", "eval"])
def test_output_path_no_directory_can_take_fails_before_any_work(command, dataset, checkpoint,
                                                                 tmp_path, capsys,
                                                                 monkeypatch):
    # a file stands where the output's directory must go
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = _count_work(monkeypatch)
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                "--out", str(blocker / "eval.json")]
    else:
        out = blocker / ("sub" if command == "train" else "sub/out.json")
        argv = [command, "--data", str(dataset), "--out", str(out)] + TINY
    assert cli.main(argv) == cli.EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: "), lines
    assert str(blocker) in lines[0]
    assert ran == []


@pytest.mark.parametrize("command", ["train", "kfold", "ablate", "eval"])
def test_failed_run_removes_the_output_directories_it_made(command, checkpoint, tmp_path,
                                                           capsys):
    out = tmp_path / "out" / "a" / "b"
    missing = str(tmp_path / "no-data")
    if command == "eval":
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", missing,
                "--out", str(out / "eval.json")]
    else:
        argv = [command, "--data", missing, "--out", str(out / "result")] + TINY
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "no manifest" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ctrl_c_reaps_every_child_and_exits_130(dataset, tmp_path, capsys, monkeypatch):
    real, steps = TR.train_step, []

    def interrupted_at_step_2(*args):
        steps.append(1)
        if len(steps) == 2:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(TR, "train_step", interrupted_at_step_2)
    out = tmp_path / "run"
    argv = ["train", "--data", str(dataset), "--out", str(out)] + TINY + ["--max-steps", "4"]
    assert cli.main(argv) == cli.EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err.splitlines() == ["interrupted"]
    assert len(steps) == 2
    _no_child_left()
    assert not out.exists()


def test_killed_loader_is_one_line_exit_3(dataset, tmp_path, capsys, monkeypatch):
    caller, real = os.getpid(), TR.augment_clip

    def augment_clip(frames, params):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(frames, params)

    monkeypatch.setattr(TR, "augment_clip", augment_clip)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(dataset), "--out", str(out)] + TINY) == cli.EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(r"i/o error: loader \d+ died without a result \(wait status 9\)",
                        lines[0]), lines[0]
    _no_child_left()
    assert not out.exists()


@pytest.mark.parametrize("where", ["caller", "evaluation-worker"])
def test_out_of_memory_is_one_line_exit_3(where, dataset, tmp_path, capsys, monkeypatch):
    caller, text = os.getpid(), "Unable to allocate 6.94 EiB for an array"

    def allocate(*args):
        raise MemoryError(text)

    if where == "caller":
        monkeypatch.setattr(TR, "train_fold", allocate)
    else:
        real = TR.M.aggregate_subject
        monkeypatch.setattr(TR.M, "aggregate_subject",
                            lambda probs: real(probs) if os.getpid() == caller else allocate())
        _cores(monkeypatch, 2)
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(dataset), "--out", str(out)] + TINY) == cli.EXIT_IO
    assert capsys.readouterr().err.splitlines() == [f"out of memory: {text}"]
    _no_child_left()
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--hw", "100000000000000000000", "--frames-min", "16", "--frames-max", "16"],
    ["--clip-len", "99999999999999999999", "--frames-min", "99999999999999999999",
     "--frames-max", "99999999999999999999"],
], ids=["hw", "frames"])
def test_gen_data_geometry_numpy_cannot_index_is_one_line_before_any_write(flags, tmp_path,
                                                                           capsys):
    out = tmp_path / "big"
    assert cli.main(["gen-data", "--out", str(out), "--mci", "1", "--nc", "1"] + flags) \
        == cli.EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), lines
    assert re.search(r"\b(hw|frames_max)\b", lines[0]), lines[0]
    assert not out.exists()


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


def _src_env():
    """The environment with mcvv's source directory first on PYTHONPATH, as an
    uninstalled checkout runs it."""
    src = str(Path(mcvv.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_mcvv_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "mcvv", "--help"], env=_src_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "gradcheck" in out.stdout


def test_data_import_loads_no_model_module():
    # the data layer reads and checks files; whether a clip fits a model is
    # ModelConfig's rule, so mcvv.data needs none of the model's modules
    code = ("import sys, mcvv.data; "
            "print(sorted(m for m in sys.modules "
            "if m in ('mcvv.tubelet', 'mcvv.model', 'mcvv.encoder')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_scipy_ndimage():
    # augmentation and erf need only numpy and math; loading any part of
    # scipy would cost every command its import time
    env = _src_env()
    code = ("import sys, mcvv.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
