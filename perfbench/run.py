"""bdlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout; bdlab is imported from ./src.  With
--trace 0 it reports the end-to-end metrics (set-up time, iteration wall
time, evaluation throughput, peak memory); with --trace 1 it reports the
per-layer metrics from a traced run.  Every iteration's answers are checked
against independent oracles.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details (raw timings,
speed factors, outputs, environment) go to .perfbench_out/.

Times are reference seconds: raw seconds scaled by the host speed that a
fixed kernel samples throughout the measurement (see calibration.py).  The
load comes from one worker process at a time; the BLAS/OpenMP pools are
pinned to one thread and BDLAB_THREADS is unset.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (the module imports only numpy at load time)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("BDLAB_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process whose set-up is timed from spawn to its ready line."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        self._watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self._watchdog.start()
        line = self.proc.stdout.readline()
        self.raw_setup_s = time.perf_counter() - t0
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            self.close()
            raise RuntimeError("worker did not become ready") from None
        # the worker samples host speed from its first line; see calibration.py
        self.setup_s = self.raw_setup_s * ready["factor"]

    def result(self) -> dict:
        out, _ = self.proc.communicate("go\n")
        self.close()
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self):
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--spans", str(OUT / f"spans-{tag}.npz")]
    if args.smoke:
        argv.append("--smoke")
    try:
        setups = []
        # set-up is timed in fresh processes; only the last one measures
        for _ in range(1 if args.trace else SETUP_SAMPLES - 1):
            w = Worker(argv + ["--setup-only"], env, deadline)
            w.close()
            setups.append((w.setup_s, w.raw_setup_s))
        w = Worker(argv, env, deadline)
        try:
            setups.append((w.setup_s, w.raw_setup_s))
            result = w.result()
        finally:
            w.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s for s, _ in setups), "unit": "s"}
    result["setup_samples"] = [{"setup_s": s, "raw_s": r} for s, r in setups]
    result["workload"], result["trace"] = args.workload, args.trace
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=float)
    return result


def _print_summary(args, result):
    env = result["environment"]
    print(f"bdlab benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"  host: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    print(f"  samples: {result['samples']} untraced, {result['traced_samples']} traced "
          f"iterations; {len(result['setup_samples'])} set-ups")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'failed_frac':40s} {frac:>16.6g} ({result['failed']}/{result['attempted']} checks)")
    for f in result["failures"]:
        print(f"  FAILED {f['check']}: {str(f['detail'])[:200]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets and sample counts, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "bdlab" / "__init__.py").is_file():
        print(f"no bdlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _print_summary(args, result)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
