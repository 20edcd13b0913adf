"""Benchmark for socle-verify: one command, every metric, checked outputs.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload sweep --seed 7 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): sweep, large-order, gl-check.

With --trace 0 it reports the end-to-end metrics: wall_s (median seconds
of one unit of the workload), setup_s (median seconds, over fresh
processes, to import the package and build the structures the workload is
verified against) and peak_rss_mb (maximum RSS of the measuring process).
Both times are scaled to a reference host speed (see speed.py); the raw
seconds are on the detail line.  With --trace 1 it reports the per-layer
metrics of a traced run instead, in raw seconds.

The measured work runs in one fresh child Python process with BLAS pinned
to one thread.  The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the machine facts, the seeds and the raw samples.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run child.py to completion; a child that overruns is killed and reaped."""
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "socle_verify" / "__init__.py").is_file():
        print(f"error: no socle_verify sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("SOCLE_VERIFY_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                done = _child(["setup", args.workload], env, min(60.0, remaining()))
                if done.returncode != 0 or not done.stdout.strip():
                    print(done.stderr, file=sys.stderr)
                    print(f"error: set-up exited with code {done.returncode}", file=sys.stderr)
                    return 1
                setups.append(json.loads(done.stdout.strip().splitlines()[-1]))
        done = _child(
            ["measure", args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            env, remaining(),
        )
    except subprocess.TimeoutExpired as err:
        print(f"error: {' '.join(err.cmd[1:])} exceeded the time limit", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(done.stderr, file=sys.stderr)
        print(f"error: measurement exited with code {done.returncode}", file=sys.stderr)
        return 1
    child = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = child["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(child["samples_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(s["scaled_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    correct = child["failed"] == 0 and not child["problems"]
    facts = {
        **child["facts"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src / "socle_verify"),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    detail = {
        "facts": facts,
        "samples_s": child["samples_s"],
        "raw_samples_s": child["raw_samples_s"],
        "traced_samples_s": child.get("traced_samples_s"),
        "setup_samples_s": [s["scaled_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_s"] for s in setups],
        "failed_ratio": child["failed"] / max(child["attempted"], 1),
        "missing_targets": child.get("missing_targets"),
        "problems": child["problems"],
    }
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
