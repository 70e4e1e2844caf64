"""lightmc benchmark: fit, predict and bundle round-trip on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lightmc source tree; the library is imported from
`src/`. The inputs are generated from the seed into `.perfbench/`, then
child processes with the BLAS thread count pinned to 1 do the measuring:

- `--trace 0`: one fresh process per pass, for S seconds and at least two
  passes. Each pass sets up (imports lightmc, parses both files), fits,
  predicts and round-trips the bundle, as one `lightmc train` run would.
  Prints the end-to-end metrics, each the median over all passes.
- `--trace 1`: one process that runs an untraced and a traced pass and
  prints the per-layer metrics; the spans go to `.perfbench/.../spans.jsonl`.

Every pass runs the correctness gates. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_sparse_topic_inputs  # noqa: E402

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
MIN_PASSES = 2  # the bundle-bytes gate needs a second fit of the same seed
TIME_LIMIT_S = 170.0  # all child processes of one run

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "bundle_roundtrip_s": "s",
    "test_error": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def run_child(args: list, env: dict, deadline: float, cpu: int | None = None) -> dict:
    """Run worker.py, pinned to `cpu` if given, and return the JSON of its last output line."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *map(str, args), repr(t0)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args[0]} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median_of(passes: list[dict], name: str) -> float:
    """Median over all samples of one metric; a pass reports a number or a list."""
    samples = []
    for p in passes:
        value = p["metrics"][name]
        samples.extend(value if isinstance(value, list) else [value])
    return statistics.median(samples)


def git_hash(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "lightmc" / "__init__.py").is_file():
        print(f"no lightmc source tree under {root}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    make_sparse_topic_inputs(args.seed, workdir)

    env = dict(os.environ, **PINNED_THREADS, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    cpus = sorted(os.sched_getaffinity(0))
    common = [args.workload, args.seed, workdir]
    # A single-threaded pass runs on one core. The cores of a shared VM slow
    # down and speed up independently for minutes at a time, so the passes
    # take the cores in turn and every run samples each core equally.
    single = workload.config["threads"] == 1
    passes = []
    try:
        if args.trace:
            passes.append(run_child(["trace", *common], env, deadline))
            metrics = passes[0]["metrics"]
        else:
            started = time.monotonic()
            while len(passes) < MIN_PASSES or time.monotonic() - started < args.seconds:
                cpu = cpus[len(passes) % len(cpus)] if single else None
                passes.append(run_child(["pass", *common, len(passes)], env, deadline, cpu))
            metrics = {
                name: {"value": median_of(passes, name), "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        metrics["ops.attempted"] = {"value": attempted, "unit": "count"}
        metrics["ops.failed"] = {"value": len(failures), "unit": "count"}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git": git_hash(root),
        "nproc": os.cpu_count(),
        "lightmc_threads": min(workload.config["threads"], len(cpus)),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "blas_env": PINNED_THREADS,
        "passes": None if args.trace else [p["metrics"] for p in passes],
        "failures": failures,
    }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps({"info": info, **summary}, indent=1))
    print("# " + json.dumps({k: v for k, v in info.items() if k != "passes"}))
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
