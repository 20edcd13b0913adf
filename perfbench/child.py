"""The process that does the measured work; started by run.py.

  child.py setup WORKLOAD
      import socle_verify and build the workload's structures, and print
      one JSON line with the raw and the scaled seconds this took
  child.py measure WORKLOAD SEED SECONDS TRACE
      run units of the workload until SECONDS have passed, check every
      output, and print one JSON line with samples, counts and metrics
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe


def _facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def _check_metric_names(names: list[str]) -> list[str]:
    """The per-layer metrics emitted must be those BENCHMARK.json lists."""
    spec = Path.cwd() / "BENCHMARK.json"
    if not spec.exists():
        return []
    listed = [m["name"] for m in json.loads(spec.read_text())["per_layer"]]
    if listed != names:
        return [f"per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(names) ^ set(listed))}"]
    return []


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from socle_verify import cli

    import spans

    attempted = failed = 0
    problems: list[str] = []
    plain: list[float] = []  # scaled seconds of untraced units (see speed.py)
    plain_raw: list[float] = []
    timed: list[float] = []
    tracer = spans.Tracer() if traced else None
    if traced:
        spans.selftest()

    def unit(with_trace: bool) -> tuple[float, float]:
        """(scaled, raw) seconds of one unit; a traced unit is not scaled."""
        nonlocal attempted, failed
        gc.collect()  # every unit starts without the previous unit's garbage
        if with_trace:
            start = time.perf_counter()
            tracer.install()
            try:
                results = tracer.root(workloads.run_unit, cli.main, workload, seed)
            finally:
                tracer.uninstall()
            elapsed = time.perf_counter() - start
            times = (elapsed, elapsed)
        else:
            with SpeedProbe(workloads.PROBE[workload]) as probe:
                results = workloads.run_unit(cli.main, workload, seed)
            times = (probe.scaled_s, probe.raw_s)
        a, f, p = workloads.check_unit(workload, seed, results)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        return times

    deadline = time.perf_counter() + seconds
    unit(False)  # warm-up: lazy imports and first-touch allocations
    peak_rss_mb = None
    while True:
        if traced and len(timed) <= len(plain):
            timed.append(unit(True)[1])
        else:
            scaled, raw = unit(False)
            plain.append(scaled)
            plain_raw.append(raw)
        if peak_rss_mb is None:  # after a fixed amount of work: the warm-up and one unit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() >= deadline and plain and (timed or not traced):
            break

    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "samples_s": plain,
        "raw_samples_s": plain_raw,
        "peak_rss_mb": peak_rss_mb,
        "facts": _facts(),
    }
    if traced:
        metric_specs = spans.per_layer_metric_names()
        names = [name for name, _, _ in metric_specs]
        values = spans.per_layer_values(tracer, len(timed))
        values["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain_raw)
        values["trace.units"] = len(timed)
        out["per_layer"] = {name: {"value": values[name], "unit": metric_unit}
                            for name, metric_unit, _ in metric_specs}
        out["traced_samples_s"] = timed
        out["missing_targets"] = tracer.missing
        trace_problems = out["problems"]
        trace_problems.extend(_check_metric_names(names))
        for layer in workloads.EXPECTED_LAYERS[workload]:
            if tracer.layer_calls(layer) == 0:
                trace_problems.append(f"layer {layer} recorded no call in the traced run")
        # the layers of all workloads together must cover every module
        covered = {layer for layers in workloads.EXPECTED_LAYERS.values() for layer in layers}
        if covered != set(spans.LAYERS):
            trace_problems.append(
                f"no workload covers layers {sorted(set(spans.LAYERS) - covered)}")
    return out


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        with SpeedProbe(workloads.PROBE[workload]) as probe:
            workloads.setup(workload)
        print(json.dumps({"raw_s": probe.raw_s, "scaled_s": probe.scaled_s}))
        return 0
    seed, seconds, traced = int(argv[2]), float(argv[3]), argv[4] == "1"
    print(json.dumps(measure(workload, seed, seconds, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
