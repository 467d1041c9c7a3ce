"""One benchmark process: set up a workload, time its iterations, check them.

Started by run.py, which times the set-up from outside.  Protocol on stdout:
one `{"ready": true}` line once set up (then, unless --setup-only, wait for a
line on stdin before measuring), and one JSON result line at the end.
Anything the program itself prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

T_START = time.perf_counter()


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_THREADS") or k == "PYTHONHASHSEED"},
    }


def _run_iteration(steps, tracer, sampler):
    """Time every step; returns step records and the raw step values."""
    records, values = [], []
    for si, step in enumerate(steps):
        error = None
        t0 = time.perf_counter()
        try:
            value = tracer.run_step(si, step.run) if tracer else step.run()
        except Exception:  # a failed operation is counted, the run goes on
            value, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        records.append({"label": step.label, "raw_s": t1 - t0,
                        "factor": sampler.factor(t0, t1), "error": error})
        values.append(value)
    return records, values


def _check_iteration(steps, records, values, checks):
    outputs = {}
    for step, rec, value in zip(steps, records, values):
        if rec["error"] is not None:
            checks.append((f"{step.label}.completed", False, rec["error"]))
            continue
        try:
            result = step.check(value)
        except Exception:
            checks.append((f"{step.label}.checked", False, traceback.format_exc()))
            continue
        checks.extend(result.checks)
        rec["evals"] = result.evals
        rec["eval_seconds"] = result.eval_seconds
        outputs[step.label] = result.outputs
    return outputs


def _wall(records) -> float:
    return sum(r["raw_s"] * r["factor"] for r in records)


def measure(args, steps, sampler) -> dict:
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    iterations, checks = [], []
    first_outputs = None
    layer_rows, count_rows = [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_iteration(k)
        t0 = time.perf_counter()
        records, values = _run_iteration(steps, tracer if traced else None, sampler)
        if traced:
            tracer.uninstall()
            layer_rows.append(tracer.self_times(k, [r["factor"] for r in records]))
            count_rows.append(dict(tracer.counts))
        outputs = _check_iteration(steps, records, values, checks)
        canon = json.dumps(outputs, sort_keys=True, default=float)
        if first_outputs is None:
            first_outputs = canon
        else:
            checks.append((f"determinism.iteration{k}", canon == first_outputs, None))
        iterations.append({"traced": traced, "steps": records,
                           "seconds": time.perf_counter() - t0})
        k += 1
        elapsed = time.perf_counter() - t_start
        if args.trace and k % 2 == 1:
            continue  # a traced iteration always follows an untraced one
        last = sum(it["seconds"] for it in iterations[-(2 if args.trace else 1):])
        if elapsed + last > args.seconds:
            break

    plain = [it for it in iterations if not it["traced"]]
    walls = [_wall(it["steps"]) for it in plain]
    evals = sum(r.get("evals", 0) for it in plain for r in it["steps"])
    eval_time = sum(
        (r["eval_seconds"] if r.get("eval_seconds") is not None else r["raw_s"]) * r["factor"]
        for it in plain for r in it["steps"]
    )
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "evals_per_s": (evals / eval_time if eval_time > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.trace:
        for row in count_rows[1:]:
            checks.append(("trace.counts_repeat", row == count_rows[0],
                           {k: row[k] - count_rows[0][k] for k in row}))
        metrics = _layer_metrics(layer_rows, count_rows[0], iterations, walls)
        metrics["trace.spans"] = (len(tracer.start) / len(layer_rows), "count")
        tracer.save(args.spans)
    failures = [{"check": n, "detail": d} for n, ok, d in checks if not ok]
    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": len(plain),
        "traced_samples": len(iterations) - len(plain),
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures[:50],
        "outputs": json.loads(first_outputs),
        "iterations": iterations,
        "environment": _environment(args.seed),
    }


def _layer_metrics(layer_rows, counts, iterations, plain_walls) -> dict:
    med = statistics.median
    traced_walls = [_wall(it["steps"]) for it in iterations if it["traced"]]
    out = {name: (med(row[name] for row in layer_rows), "s") for name in layer_rows[0]}
    for name, value in counts.items():
        out[name] = (value, "count")

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["functions.jump_segments_repeat_ratio"] = (
        ratio("functions.jump_segments_repeats", "functions.jump_segments_calls"), "ratio")
    out["densities.points_per_call"] = (ratio("densities.points", "densities.calls"), "count")
    evals = counts["ellipticity.evals"]
    out["ellipticity.useful_ratio"] = (
        (evals - counts["ellipticity.rejected"]) / evals if evals else 0.0, "ratio")
    out["trace.wall_s"] = (med(traced_walls), "s")
    out["trace.overhead_s"] = (med(traced_walls) - med(plain_walls), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr

    import calibration
    import workloads

    # set-up (imports) is interpreter-bound whatever the workload
    sampler = calibration.SpeedSampler("interpreter")
    sampler.start()
    try:
        import bdlab  # noqa: F401  (the whole package, scipy included, is set-up)

        steps = workloads.build(args.workload, args.seed, args.smoke, args.workdir)
        ready = {"ready": True, "factor": sampler.factor(T_START, time.perf_counter())}
        protocol.write(json.dumps(ready) + "\n")
        protocol.flush()
        if args.setup_only:
            return 0
        if sys.stdin.readline().strip() != "go":
            return 1
        sampler.stop()
        sampler = calibration.SpeedSampler(workloads.KERNEL.get(args.workload, "interpreter"))
        sampler.start()
        result = measure(args, steps, sampler)
    finally:
        sampler.stop()
    protocol.write(json.dumps(result, default=float) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
