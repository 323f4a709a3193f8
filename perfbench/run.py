"""mcvv benchmark: seeded cohorts, closed-loop `mcvv train` / `mcvv eval`
units, output checks, and end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-64-aug --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; mcvv is imported from ``src/``.
Inputs are generated from ``--seed`` before the timed region. Units run one
at a time, each in a fresh interpreter, until ``--seconds`` have elapsed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and prints the per-layer metrics. The last line
of stdout is the result; the environment, every unit's figures and the
spans go to ``.perfbench_runs/``. README.md explains each workload and
metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import file_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170.0   # a run must end within 180 s, set-up included

# RunConfig keys per workload. The training seed stays at its default: the
# workload seed reaches the program only through the generated inputs.
WORKLOADS = {
    # Default model with augmentation on; 4 training subjects x 8 clips fill
    # two batches of 16, so every step is a full batch.
    "train-64-aug": ("train", {"mci": 4, "nc": 3, "frames_min": 128, "frames_max": 128,
                               "hw": 64, "augment": True, "max_steps": 6}),
    # The README gen-data cohort, scored by a loaded checkpoint. Every
    # subject records 192 frames (the middle of gen-data's 128-256), so the
    # seed changes clip content but not the cohort's 384-clip size.
    "eval-64": ("eval", {"mci": 20, "nc": 12, "frames_min": 192, "frames_max": 192,
                         "hw": 64, "rho": 0.3}),
}

END_TO_END = {"setup_s": "s", "clips_per_s": "1/s", "wall_s": "s", "peak_rss_mb": "MB"}


def prepare(command: str, config: dict, seed: int, work: Path) -> list[str]:
    """Write the workload's inputs under ``work``; return the mcvv argv."""
    import numpy as np

    from mcvv.config import RunConfig
    from mcvv.data import generate_synthetic_cohort
    from mcvv.model import Model, save_checkpoint

    flags = {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in config.items()}
    cohort_cfg = RunConfig()
    cohort_cfg.apply({**flags, "seed": str(seed)})
    data = work / "data"
    generate_synthetic_cohort(cohort_cfg.cohort_spec(), data)
    if command == "train":
        argv = ["train", "--data", str(data), "--fold", "0", "--out", "{out}"]
        argv += [a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v)]
    else:
        run_cfg = RunConfig()
        run_cfg.apply(flags)
        checkpoint = work / "checkpoint"
        model = Model(run_cfg.model_config(), seed=np.random.SeedSequence([seed, 1]))
        save_checkpoint(model, checkpoint)
        run_cfg.write(checkpoint / "config.cfg")
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                "--out", "{out}/eval.json"]
    os.sync()   # write the inputs back now, not during the timed region
    return argv


def run_unit(index: int, command: str, argv: list[str], trace: bool, work: Path,
             timeout: float) -> dict:
    """Run one unit in a fresh interpreter and return what it reported."""
    out = work / f"unit{index}"
    out.mkdir()
    spec = {"kind": command, "trace": trace, "out": str(out),
            "argv": [a.replace("{out}", str(out)) for a in argv]}
    spec_path, result_path = work / f"unit{index}.spec.json", work / f"unit{index}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    began = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "unit.py"), str(spec_path),
                               str(result_path)], env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        wall = perf_counter() - began
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"trace": trace, "problems": [f"unit exited {proc.returncode}: {tail[0]}"]}
        unit = json.loads(result_path.read_text())
        if not unit["problems"]:
            unit["problems"] = file_problems(command, out, unit.get("params_sha256"))
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problems": [f"unit exceeded {timeout:.0f} s"], "timeout": True}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    unit.update(trace=trace, wall_s=wall)
    return unit


def check_digests(units: list[dict], key: str) -> None:
    """Same-seed units of the same code must score every subject the same,
    within this run and against earlier runs recorded in the checkout."""
    store_path = RUNS / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    good = [u for u in units if not u["problems"]]
    reference = store.get(key) or (good[0]["digest"] if good else None)
    for unit in good:
        if unit["digest"] != reference:
            unit["problems"].append(f"score digest {unit['digest'][:12]} != {reference[:12]}")
    if reference and key not in store:
        store[key] = reference
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(store_path)


def end_to_end(units: list[dict]) -> dict:
    """Medians over units, except throughput: all clips over all loop time.
    A metric whose marks some unit lacks (its span target vanished) is left
    out."""
    marks = [u["marks"] for u in units]
    values = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_kb"] / 1024 for u in units),
    }
    if all("setup_end" in m for m in marks):
        values["setup_s"] = statistics.median(m["setup_end"] - m["start"] for m in marks)
    if all("loop_end" in m for m in marks):
        values["clips_per_s"] = (sum(u["clips"] for u in units)
                                 / sum(m["loop_end"] - m["loop_start"] for m in marks))
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()
            if k in values}


# -- environment ------------------------------------------------------------------------------


def _openblas(symbol: str, restype):
    """Call a no-argument OpenBLAS query in the library numpy links, if found."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_{symbol}{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], restype
                    return fn()
    return None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = _openblas("get_config", ctypes.c_char_p)
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    # Only this checkout's own commit counts, not that of a repository around it.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": config.decode() if config else None,
                 "threads": _openblas("get_num_threads", ctypes.c_int),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS") if k in os.environ}},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source_digest(),
    }


# -- main ------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    if not (SRC / "mcvv" / "__init__.py").is_file():
        print(f"no mcvv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    command, config = WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        env = environment()
        argv = prepare(command, config, args.seed, work)
        kinds = [False, True] if args.trace else [False]
        units: list[dict] = []
        loop_start = perf_counter()
        while len(units) < 2 * len(kinds) or perf_counter() - loop_start < args.seconds:
            remaining = DEADLINE_S - (perf_counter() - started)
            if remaining <= 0:
                break
            unit = run_unit(len(units), command, argv, kinds[len(units) % len(kinds)],
                            work, remaining)
            units.append(unit)
            if unit.get("timeout"):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_digests(units, f"{args.workload}|seed={args.seed}|{env['source_sha256']}")
    good = [u for u in units if not u["problems"]]
    untraced = [u for u in good if not u["trace"]]
    traced = [u for u in good if u["trace"]]
    metrics: dict = {}
    if args.trace and traced and untraced:
        from tracer import layer_metrics

        overhead = (statistics.median(u["wall_s"] for u in traced)
                    - statistics.median(u["wall_s"] for u in untraced))
        metrics = layer_metrics(traced, overhead)
    elif not args.trace and untraced:
        metrics = end_to_end(untraced)

    failed = len(units) - len(good)
    result = {"correct": failed == 0 and bool(units), "attempted": len(units),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": config, "environment": env,
              "units": units, **result}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    for unit in units:
        for problem in unit["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
