"""fisherjscc benchmark: three CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload train-fisher --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each repeat is a fresh interpreter (bench/worker.py) that writes its
INI config, runs `gen-data`, then runs the workload's CLI command. Repeats go
on until --seconds have passed. With --trace 0 the result holds the
end-to-end metrics (medians over the repeats); with --trace 1 untraced and
traced repeats alternate and the result holds the per-layer metrics.

Every repeat is an operation. It fails when a command exits non-zero or
raises, when an output check fails, or when its output bytes differ from
the first repeat's. The last line of stdout is the result JSON; the line
before it records the environment and every repeat's wall time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_run"
RUN_BUDGET_S = 170        # a run must end within 180 s, whatever the program does
MIN_REPEATS = 3           # per kind of repeat (untraced, traced)
THREADS = "2"

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402

CONFIG = """\
[run]
seed = {seed}
out = out

[data]
kind = rings
classes = 3
per_class_train = 200
per_class_test = 200
spread = 0.15
dir = data

[model]
repr_dim = 8
power = 1.0
encoder_hidden = 64,64
decoder_hidden = 64

[channel]
family = {family}
psnr_db = 20.0

[train]
lambda = 0.5
omit_sigma2 = true
noise_draws = 4
batch_size = 64
epochs = 60

[experiment]
kind = sweep
checkpoint = ../prep/out/checkpoint.json
psnr_grid = 5,10,15,20,25
trials = 200
mc_samples = 2000
sample_limit = 256
taylor_psnr_grid = 25,20,15,10
"""

# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means the output holds.

TRAIN_MIN_ACCURACY = 0.95
TAYLOR_BAND = (0.8, 1.2)
TAYLOR_BANDED_PSNR = (25.0, 20.0)
POWER = 1.0


def read_rows(path) -> list[dict]:
    """Rows of a fisherjscc CSV, skipping its `# schema=` line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_trainlog(path) -> list[str]:
    rows = read_rows(path)
    if not rows:
        return ["trainlog.csv has no rows"]
    accuracy = float(rows[-1]["accuracy"])
    if not accuracy >= TRAIN_MIN_ACCURACY:
        return [f"final train accuracy {accuracy} < {TRAIN_MIN_ACCURACY}"]
    return []


def check_taylor(path) -> list[str]:
    rows = read_rows(path)
    problems = []
    for row in rows:
        ratio = float(row["ratio"])
        if not (math.isfinite(ratio) and ratio > 0.0):
            problems.append(f"sigma2={row['sigma2']}: ratio {ratio} is not finite and positive")
    low, high = TAYLOR_BAND
    for psnr in TAYLOR_BANDED_PSNR:
        sigma2 = POWER * 10.0 ** (-psnr / 10.0)
        match = [r for r in rows if math.isclose(float(r["sigma2"]), sigma2, rel_tol=1e-9)]
        if not match:
            problems.append(f"no Taylor row at {psnr} dB")
        elif not low <= float(match[0]["ratio"]) <= high:
            problems.append(f"{psnr} dB: ratio {match[0]['ratio']} outside [{low}, {high}]")
    return problems


def check_sweep(path) -> list[str]:
    rows = sorted(read_rows(path), key=lambda r: float(r["psnr_db"]))
    if not rows:
        return ["sweep.csv has no rows"]
    problems = []
    rates = [float(r["error_rate"]) for r in rows]
    for row, rate in zip(rows, rates):
        if not 0.0 <= rate <= 1.0:
            problems.append(f"{row['psnr_db']} dB: error rate {rate} outside [0, 1]")
    for (a, ra), (b, rb) in zip(zip(rows, rates), zip(rows[1:], rates[1:])):
        if rb > ra:
            problems.append(f"error rate rises from {ra} at {a['psnr_db']} dB "
                            f"to {rb} at {b['psnr_db']} dB")
    return problems


# ---------------------------------------------------------------------------
# Workloads.

WORKLOADS = {
    # name: (channel family of the repeat config, CLI command, {output: check})
    "train-fisher": ("awgn", ["train"],
                     {"checkpoint.json": None, "trainlog.csv": check_trainlog}),
    "validate-kl": ("awgn", ["validate-approx", "--threads", THREADS],
                    {"taylor.csv": check_taylor}),
    "sweep-rayleigh": ("rayleigh", ["eval", "--threads", THREADS],
                       {"sweep.csv": check_sweep}),
}
NEEDS_CHECKPOINT = ("validate-kl", "sweep-rayleigh")


def _spec(workdir: Path, seed: int, family: str, command: list[str], trace: bool,
          request: str) -> dict:
    return {
        "src": str(ROOT / "src"),
        "config": CONFIG.format(seed=seed, family=family),
        "setup": ["gen-data", "--config", "run.ini", "--seed", str(seed), "--out", "data"],
        "command": [command[0], "--config", "run.ini", "--seed", str(seed), "--out", "out",
                    *command[1:]],
        "trace": trace,
        "request": request,
        "result": str(workdir / "result.json"),
    }


def run_worker(workdir: Path, spec: dict, deadline: float) -> dict:
    """Run one worker in workdir; returns its result plus setup_s (or an error)."""
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    timeout = max(deadline - spawned, 1.0)
    with open(workdir / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"),
                                   json.dumps(spec)], cwd=workdir, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:       # run() has killed and reaped the worker
            return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not Path(spec["result"]).exists():
        return {"error": f"worker exited {proc.returncode}; see {workdir / 'worker.log'}"}
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def judge(result: dict, out_dir: Path, outputs: dict,
          reference: dict | None) -> tuple[list[str], dict]:
    """Problems of one repeat, and the digests of its outputs."""
    if "error" in result:
        return [result["error"]], {}
    if result["setup_exit"] != 0:
        return [f"gen-data exited {result['setup_exit']}"], {}
    if result["exit"] != 0:
        return [f"command exited {result['exit']}"], {}
    problems, digests = [], {}
    for name, check in outputs.items():
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name} missing")
            continue
        digests[name] = sha256(path)
        if check is not None:
            problems += [f"{name}: {p}" for p in check(path)]
    if reference is not None and digests != reference:
        differing = sorted(n for n in outputs if digests.get(n) != reference.get(n))
        problems.append(f"output bytes differ from the first repeat: {differing}")
    return problems, digests


# ---------------------------------------------------------------------------
# Environment block.


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):    # older NumPy has no dict form; the block omits BLAS
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[dict]) -> dict:
    def median(key):
        return statistics.median(r[key] for r in results)

    return {
        "setup_s": _metric(median("setup_s"), "s"),
        "wall_s": _metric(median("wall_s"), "s"),
        "cpu_s": _metric(median("cpu_s"), "s"),
        "peak_rss_mb": _metric(median("peak_rss_mb"), "MB"),
    }


PER_LAYER_UNITS = {"self_s": "s", "step_ms": "ms", "overhead_s": "s"}


def per_layer(traced: list[dict], untraced: list[dict], attempted: int, failed: int) -> dict:
    summaries = [tracing.summarize(*tracing.load(r["trace"])) for r in traced]
    metrics = {}
    for name in summaries[0]:
        value = statistics.median(s[name] for s in summaries)
        metrics[name] = _metric(value, PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count"))
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["failed_share"] = _metric(failed / attempted, "share")
    return metrics


def prepare_checkpoint(work: Path, seed: int, deadline: float) -> str | None:
    """Train the checkpoint the evaluation workloads read; untimed."""
    spec = _spec(work / "prep", seed, "awgn", ["train"], False, "prep")
    result = run_worker(work / "prep", spec, deadline)
    problems, _ = judge(result, work / "prep" / "out", WORKLOADS["train-fisher"][2], None)
    return "; ".join(problems) if problems else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "fisherjscc" / "cli.py").is_file():
        print(f"error: no fisherjscc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    family, command, outputs = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.workload in NEEDS_CHECKPOINT:
        problem = prepare_checkpoint(work, args.seed, deadline)
        if problem:
            print(f"error: preparing the checkpoint failed: {problem}", file=sys.stderr)
            return 1

    untraced, traced, problems = [], [], []
    reference = None
    attempted = failed = 0
    started = time.monotonic()
    while True:
        now = time.monotonic()
        short = len(untraced) < MIN_REPEATS or (args.trace and len(traced) < MIN_REPEATS)
        if now - started >= args.seconds and (not short or deadline - now < 60):
            break
        if deadline - now < 5:
            break
        trace = bool(args.trace) and attempted % 2 == 1
        repeat_dir = work / f"r{attempted}"
        spec = _spec(repeat_dir, args.seed, family, command, trace,
                     f"{args.workload}/s{args.seed}/r{attempted}")
        result = run_worker(repeat_dir, spec, deadline)
        attempted += 1
        found, digests = judge(result, repeat_dir / "out", outputs, reference)
        if reference is None and len(digests) == len(outputs):
            reference = digests
        if found:
            failed += 1
            problems += [f"repeat {attempted - 1}: {p}" for p in found]
            print(f"repeat {attempted - 1} failed: {found}", file=sys.stderr)
        if "wall_s" in result:
            (traced if trace else untraced).append(result)
        if not found:
            shutil.rmtree(repeat_dir)

    if not untraced or (args.trace and not traced):
        print("error: no repeat produced a timing", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced, attempted, failed)
        absent = traced[0]["absent"]
    else:
        metrics = end_to_end(untraced)
        absent = []
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed,
                      "wall_s": {"untraced": [r["wall_s"] for r in untraced],
                                 "traced": [r["wall_s"] for r in traced]},
                      "trace_absent": absent, "problems": problems}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
