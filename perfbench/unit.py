"""One unit of a workload: one `mcvv train` or `mcvv eval` command, run in a
fresh interpreter through `mcvv.cli.main`, as a user runs it.

    python3 perfbench/unit.py SPEC.json RESULT.json

SPEC names the command and its arguments, and whether to trace every layer
or only the spans that split set-up from the loop. RESULT receives the
timing marks, the peak RSS, the checks made on the results in memory,
digests of the subject scores and the trained parameters and, when traced,
the spans. The files the command wrote are checked by run.py.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import mcvv.cli  # noqa: E402

IMPORTED = perf_counter()

from checks import eval_problems, train_problems  # noqa: E402
from tracer import COARSE, Tracer  # noqa: E402


def capture(module, attr: str, store: dict) -> None:
    """Keep the arguments and result of the next call of ``module.attr``."""
    fn = getattr(module, attr)

    def captured(*args, **kwargs):
        store["args"] = args
        store["result"] = fn(*args, **kwargs)
        return store["result"]

    setattr(module, attr, captured)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer()
    tracer.install(None if spec["trace"] else COARSE)
    fold: dict = {}
    evaluated: dict = {}
    capture(mcvv.train, "train_fold", fold)
    capture(mcvv.train, "evaluate_subjects", evaluated)

    rc = mcvv.cli.main(spec["argv"])
    end = perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if rc != 0:
        problems, figures = [f"mcvv exited with {rc}"], {}
    elif spec["kind"] == "train":
        problems, figures = train_problems(fold)
    else:
        problems, figures = eval_problems(evaluated)

    spans = tracer.spans
    marks = {"start": START, "imported": IMPORTED, "end": end}
    for name, start, stop, parent in spans:
        if name == "model.init" and "loop_start" not in marks:
            marks["setup_end"] = marks["loop_start"] = stop
        if name == "train.evaluate":
            marks["eval_start"], marks["eval_end"] = start, stop
    if spec["kind"] == "eval" and "eval_start" in marks:
        marks["setup_end"] = marks["loop_start"] = marks["eval_start"]
        marks["loop_end"] = marks["eval_end"]
    elif "eval_start" in marks:
        marks["loop_end"] = marks["eval_start"]

    result = {"problems": problems, "marks": marks, "peak_rss_kb": peak_rss_kb,
              "missing": tracer.missing_spans(), **figures}
    if spec["trace"]:
        result.update(spans=spans, counts=tracer.counts)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
