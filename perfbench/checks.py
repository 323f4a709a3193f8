"""Output checks for one unit.

The in-memory checks run inside the unit, on what `train_fold` or
`evaluate_subjects` returned. The file checks run in run.py after the unit
has exited, on the report and checkpoint the command wrote. A unit that
fails any check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REPORT_RATES = ("accuracy", "f1", "auc", "sensitivity", "specificity", "clip_accuracy")


def scores_digest(scores: dict, history: list) -> str:
    text = json.dumps({"scores": sorted(scores.items()), "history": history})
    return hashlib.sha256(text.encode()).hexdigest()


def params_digest(model) -> str:
    sha = hashlib.sha256()
    for name, p in model.named_parameters():
        sha.update(name.encode() + b"\0" + p.data.astype("<f4").tobytes())
    return sha.hexdigest()


def train_problems(fold: dict) -> tuple[list[str], dict]:
    """Every step's loss is finite, the step count is as asked, every
    held-out clip is scored, and the training split fills whole batches."""
    cohort, plan, fold_id, _, cfg = fold["args"]
    result = fold["result"]
    history = result.history
    problems = []
    if len(history) != cfg.max_steps:
        problems.append(f"{len(history)} steps, expected {cfg.max_steps}")
    if not all(math.isfinite(x) for x in history):
        problems.append("non-finite loss")
    held_out = sum(len(cohort.clips_of(s)) for s in plan.folds[fold_id])
    if result.clip_total != held_out or set(result.subject_scores) != set(plan.folds[fold_id]):
        problems.append(f"eval scored {result.clip_total} of {held_out} held-out clips")
    if (len(cohort) - held_out) % cfg.batch_size:
        problems.append(f"{len(cohort) - held_out} training clips do not fill batches "
                        f"of {cfg.batch_size}")
    return problems, {"clips": len(history) * cfg.batch_size,
                      "digest": scores_digest(result.subject_scores, history),
                      "params_sha256": params_digest(result.model)}


def eval_problems(evaluated: dict) -> tuple[list[str], dict]:
    """Every cohort clip and subject is scored, and every score is finite."""
    _, cohort, _ = evaluated["args"]
    scores, _, _, total = evaluated["result"]
    problems = []
    if total != len(cohort) or set(scores) != set(cohort.subject_ids()):
        problems.append(f"eval scored {total} of {len(cohort)} cohort clips")
    if not all(math.isfinite(s) for s in scores.values()):
        problems.append("non-finite subject score")
    return problems, {"clips": total, "digest": scores_digest(scores, [])}


def file_problems(command: str, out: Path, params_sha256: str | None) -> list[str]:
    """The report holds the resolved config and every rate, each None or
    within [0, 1]; a training checkpoint loads into a fresh model and holds
    the parameters the unit trained."""
    from mcvv.config import RunConfig, UsageError
    from mcvv.model import Model, load_checkpoint

    path = out / ("report.json" if command == "train" else "eval.json")
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report {path.name}: {exc}"]
    report = payload.get("report")
    if not isinstance(payload.get("config"), dict) or not isinstance(report, dict):
        return [f"{path.name}: config or report missing"]
    problems = [f"{path.name}: {k}={report.get(k, 'missing')!r}" for k in REPORT_RATES
                if k not in report
                or report[k] is not None and not 0.0 <= report[k] <= 1.0]
    if command == "train":
        try:
            model = Model(RunConfig.from_file(out / "config.cfg").model_config(), seed=0)
            load_checkpoint(model, out)
        except (OSError, ValueError, UsageError) as exc:
            return problems + [f"checkpoint does not load: {exc}"]
        if params_digest(model) != params_sha256:
            problems.append("checkpoint differs from the trained parameters")
    return problems
