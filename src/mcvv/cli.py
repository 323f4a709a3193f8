"""Command-line entry point.

Subcommands: gen-data, train, kfold, eval, gradcheck, ablate. Every run
config key is a flag; a --config file supplies the base values and flags
override it. Exit codes: 0 success, 1 usage error, 2 verification failure
(a failed gradient check, or a run whose values went non-finite), 3 I/O
error or out of memory, 130 interrupted (Ctrl-C), once every child process
is reaped. The checks live with the config, data, checkpoint and tensor
code; `main` only maps their errors to exit codes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from mcvv import tensor as T
from mcvv import train as TR
from mcvv.config import HEAD_MODES, LOSS_MODES, RunConfig, UsageError, write_text_atomic
from mcvv.data import (Cohort, DataError, TensorFileError, generate_synthetic_cohort,
                       plan_folds)
from mcvv.model import Model, full_model_gradcheck, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130   # 128 + SIGINT, as a shell reports a process Ctrl-C ended

GRADCHECK_TOLERANCE = 1e-4
ABLATION_T_VALUES = (2, 4, 8)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="key = value config file (flags override it)")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{f.name}", type=str, default=None,
                            metavar="V", help=f"(default: {f.default})")


def _resolve_config(args, check=RunConfig.validate) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f"cfg_{f.name}")
                 for f in fields(RunConfig)
                 if getattr(args, f"cfg_{f.name}", None) is not None}
    cfg.apply(overrides)
    return _checked(cfg, check)


def _checked(cfg: RunConfig, check=RunConfig.validate, source: str = "") -> RunConfig:
    """``cfg`` once ``check`` accepts it; its ValueError becomes a UsageError."""
    try:
        check(cfg)
    except ValueError as exc:
        raise UsageError(f"{source}{exc}") from exc
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


@contextmanager
def _output_dir(path: Path):
    """Make the directory ``path`` and its missing parents before the block,
    so that an output path no directory can take fails before any work. If
    the block raises, the directories made here are removed again, unless
    they hold something, so a failed run leaves nothing behind."""
    made = [p for p in (path, *path.parents) if not p.exists()]   # deepest first
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield path
    except BaseException:
        for p in made:
            with suppress(OSError):
                p.rmdir()
        raise


# -- commands -------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    # only the cohort keys matter here: data may be made for any model
    cfg = _resolve_config(args, check=RunConfig.cohort_spec)
    manifest = generate_synthetic_cohort(cfg.cohort_spec(), args.out)
    print(manifest)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    model_cfg = cfg.model_config()
    with _output_dir(Path(args.out)) as out_dir:
        cohort = Cohort(args.data)
        cohort.check_fits(model_cfg, l_fold=cfg.l_fold)
        plan = plan_folds(cohort.subject_ids(), cfg.l_fold, seed=cfg.seed)
        if not 0 <= args.fold < plan.k:
            raise UsageError(f"fold {args.fold} out of range (k={plan.k})")
        result = TR.train_fold(cohort, plan, args.fold, model_cfg, cfg)

        # The report goes last, so a failed save never leaves a new report
        # beside an old checkpoint.
        save_checkpoint(result.model, out_dir)
        cfg.write(out_dir / "config.cfg")
        _write_json(out_dir / "report.json",
                    {"config": asdict(cfg), "report": result.report.to_dict()})
    print(out_dir / "report.json")
    return EXIT_OK


def cmd_kfold(args) -> int:
    cfg = _resolve_config(args)
    model_cfg = cfg.model_config()
    out = Path(args.out)
    with _output_dir(out.parent):
        cohort = Cohort(args.data)
        cohort.check_fits(model_cfg, l_fold=cfg.l_fold)
        result = TR.run_kfold(cohort, model_cfg, cfg)
        payload = {
            "config": asdict(cfg),
            "folds": [fr.report.to_dict() for fr in result.folds],
            "pooled": result.pooled.to_dict(),
        }
        _write_json(out, payload)
    print(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    cfg_path = ckpt / "config.cfg"
    cfg = _checked(RunConfig.from_file(cfg_path), source=f"{cfg_path}: ")
    model_cfg = cfg.model_config()
    out = Path(args.out)
    with _output_dir(out.parent):
        cohort = Cohort(args.data)
        cohort.check_fits(model_cfg)
        model = Model(model_cfg, seed=cfg.seed)
        load_checkpoint(model, ckpt)
        scores, labels, correct, total = TR.evaluate_subjects(model, cohort,
                                                              cohort.subject_ids())
        report = TR.subject_report(scores, labels, correct, total)
        _write_json(out, {"config": asdict(cfg), "report": report.to_dict()})
    print(out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    err, n_params = full_model_gradcheck(seed=args.seed)
    print(f"parameters: {n_params}")
    print(f"max relative error: {err:.6e}")
    if err > GRADCHECK_TOLERANCE:
        print(f"FAIL: exceeds {GRADCHECK_TOLERANCE:.0e}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"PASS: within {GRADCHECK_TOLERANCE:.0e}")
    return EXIT_OK


def _ablate_cell(cell: RunConfig, cohort: Cohort, seeds: int) -> dict:
    subject_accs, clip_accs, f1s = [], [], []
    for seed in range(seeds):
        cfg = replace(cell, seed=seed)
        plan = plan_folds(cohort.subject_ids(), cfg.l_fold, seed=cfg.seed)
        result = TR.train_fold(cohort, plan, 0, cfg.model_config(), cfg)
        subject_accs.append(result.report.accuracy)
        clip_accs.append(result.report.clip_accuracy)
        f1s.append(result.report.f1 if result.report.f1 is not None else float("nan"))
    return {
        "t": cell.t, "head": cell.head, "loss": cell.loss,
        "subject_accuracy": float(np.median(subject_accs)),
        "clip_accuracy": float(np.median(clip_accs)),
        "f1": float(np.median(f1s)),
    }


def cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"seeds must be >= 1, got {args.seeds}")
    cfg = _resolve_config(args)
    for t_value in ABLATION_T_VALUES:
        if cfg.clip_len % t_value:
            raise UsageError(f"clip_len {cfg.clip_len} not divisible by t={t_value}")
    cells = [replace(cfg, t=t_value, head=head, loss=loss)
             for t_value in ABLATION_T_VALUES
             for head in HEAD_MODES
             for loss in LOSS_MODES]
    for cell in cells:
        _checked(cell)   # each cell's head and loss must fit the other keys too
    out = Path(args.out)
    with _output_dir(out.parent):
        cohort = Cohort(args.data)
        cohort.check_fits(*(cell.model_config() for cell in cells), l_fold=cfg.l_fold)
        rows = TR.fork_map(lambda cell: _ablate_cell(cell, cohort, args.seeds), cells)

        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=["t", "head", "loss",
                                                  "subject_accuracy", "clip_accuracy", "f1"])
        writer.writeheader()
        writer.writerows(rows)
        write_text_atomic(out, text.getvalue())
    print(out)
    return EXIT_OK


# -- dispatch ------------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="mcvv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="generate a synthetic cohort")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one fold, emit report + checkpoint")
    p.add_argument("--data", required=True, help="dataset dir or manifest.csv")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("kfold", help="train every fold, emit pooled report")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output report path (json)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify model gradients by central differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the t/head/loss ablation grid, emit CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seeds", type=int, default=1, help="seeds per cell (median reported)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Each tensor op checks its output, and adam_step each gradient, raising
        # NonFiniteError with a name, so numpy's overflow warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (UsageError, DataError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, TensorFileError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:   # as a full disk, the machine cannot hold the run
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except T.NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except KeyboardInterrupt:   # raised once the run's children are reaped
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
