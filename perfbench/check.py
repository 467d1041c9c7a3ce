"""Multi-run checks of the benchmark itself.

    python3 perfbench/check.py table
        one untraced run per workload at seed 0: every end-to-end metric with
        its unit and sample count, and failed_frac (failed / attempted checks)
    python3 perfbench/check.py steady
        one run per workload and seed, workloads interleaved, at seeds 0-9 and
        the held-out seed 1009 (not used while tuning); per metric, setup_s
        included, the median, quartiles and (q3 - q1) / median over seeds 0-9
        against a third of the bound in BENCHMARK.json, and whether the
        verdict statuses agree across all eleven seeds
    python3 perfbench/check.py counts
        two traced runs per workload at seed 0: the work counts must match
        exactly, so later changes can cite them as counts

Every run measures for BENCHMARK.json's run_seconds.  Exits non-zero when any
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEED = 0
SEEDS = list(range(10))
HELD_OUT = 1009
EXACT_COUNTS = ("ellipticity.evals", "densities.calls", "densities.points",
                "functions.segments", "geometry.interfaces")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, details


def _statuses(outputs) -> list:
    """Every verdict status in a run's outputs, in a fixed order."""
    if isinstance(outputs, dict):
        found = [outputs["status"]] if "status" in outputs else []
        for key in sorted(outputs):
            found += _statuses(outputs[key])
        return found
    if isinstance(outputs, list):
        return [s for item in outputs for s in _statuses(item)]
    return []


def table() -> bool:
    ok = True
    for w in WORKLOADS:
        line, details = run_once(w, SEED, 0)
        print(f"{w}: {details['samples']} iterations, {len(details['setup_samples'])} set-ups")
        for name, m in line["metrics"].items():
            print(f"  {name:14s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'failed_frac':14s} {line['failed'] / line['attempted']:14.6g} "
              f"({line['failed']}/{line['attempted']} checks)")
        ok &= line["correct"]
    return ok


def steady() -> bool:
    values = {w: {} for w in WORKLOADS}
    statuses = {w: {} for w in WORKLOADS}
    ok = True
    for seed in SEEDS + [HELD_OUT]:
        for w in WORKLOADS:
            line, details = run_once(w, seed, 0)
            ok &= line["correct"]
            if seed != HELD_OUT:
                for name, m in line["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
            statuses[w][seed] = _statuses(details["outputs"])
            print(f"seed {seed} {w}: correct={line['correct']} " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in line["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in WORKLOADS:
        distinct = {tuple(s) for s in statuses[w].values()}
        agree = len(distinct) == 1
        ok &= agree
        print(f"{w}: statuses {'agree' if agree else 'DIFFER'} across seeds: "
              f"{sorted(distinct)}")
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady_enough = spread < bounds[name] / 3
            ok &= steady_enough
            print(f"  {name:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound/3 {bounds[name] / 3:.4f} "
                  f"{'ok' if steady_enough else 'TOO WIDE'}")
    return ok


def counts() -> bool:
    ok = True
    for w in WORKLOADS:
        first, _ = run_once(w, SEED, 1)
        second, _ = run_once(w, SEED, 1)
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            ok &= a == b
            print(f"{w} {name}: {a} {b} {'same' if a == b else 'DIFFERENT'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("table", "steady", "counts"))
    args = ap.parse_args(argv)
    ok = {"table": table, "steady": steady, "counts": counts}[args.mode]()
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
