"""The four benchmark workloads: seeded inputs, timed steps and oracles.

A workload is a list of steps.  `Step.run()` is the timed work; `Step.check`
turns its result, untimed, into the deterministic outputs (recorded next to
the timings, so a speed-up that changes an answer shows), the correctness
checks that feed `failed`, and the unit count behind `evals_per_s`.

Where a CLI subcommand exists the step drives `bdlab.cli.main`, so the timed
path is the one users run, reports and all.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("search", "dalmot-search", "density-scan", "identities")
# calibration kernel (calibration.KERNELS) whose instruction mix the workload
# shares; the rest are interpreter-bound
KERNEL = {"density-scan": "memory"}

I_CE = np.zeros(2)
J_CE = np.array([2.0, 2.0])
E2 = np.array([0.0, 1.0])

# sizes: full benchmark, and the tiny smoke-test variant
SIZES = {
    False: {"budget": 2000, "dalmot_budget": 100, "dalmot_runs": 4, "samples": 10_000,
            "flux_per_family": 3, "ibp_functions": 8, "tiles": 16},
    True: {"budget": 300, "dalmot_budget": 30, "dalmot_runs": 1, "samples": 500,
           "flux_per_family": 1, "ibp_functions": 2, "tiles": 3},
}


@dataclass
class StepResult:
    outputs: dict
    checks: list = field(default_factory=list)  # (name, passed, detail)
    evals: int = 0
    eval_seconds: float | None = None  # program-measured time of the evals


@dataclass
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object], StepResult]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _cli_step(label: str, argv: list[str], workdir: str, check) -> Step:
    from bdlab import cli

    path = os.path.join(workdir, f"{label}.json")

    def run():
        return cli.main(argv + ["--out", path])

    def check_report(rc):
        with open(path) as fh:
            report = json.load(fh)
        result = check(report)
        result.checks.insert(0, (f"{label}.exit_code", rc == 0, rc))
        return result

    return Step(label, run, check_report)


def _verdict_outputs(v: dict) -> dict:
    keys = ("status", "best_energy", "reference_energy", "margin", "error_estimate",
            "budget_used", "best_family", "best_params", "cross_check")
    return {k: v[k] for k in keys}


def _competitor_energy(v: dict, density) -> float:
    from bdlab.energy import surface_energy
    from bdlab.functions import PiecewiseRigid

    u = PiecewiseRigid.from_json(v["competitor"])
    return surface_energy(u, density, tol=1e-12).value


# ---------------------------------------------------------------------------
# search: the two counterexample reproductions and an oblique elliptic run


def _check_ce1(report: dict) -> StepResult:
    from bdlab.densities import anisotropic_normal_density

    r = report["results"]
    b, v, tol = r["breakdown"], r["verdict"], r["tolerance"]
    eps = report["inputs"]["eps"]
    # hand integration of the perpendicular edges: eps (2 int_0^1 sqrt(t^2+4) dt + 1)
    total_closed = 8 * np.sqrt(2) + 4 + eps * (np.sqrt(5.0) + 4.0 * np.arcsinh(0.5) + 1.0)
    energy = _competitor_energy(v, anisotropic_normal_density(eps))
    checks = [
        ("ce1.status", v["status"] == "VIOLATION", v["status"]),
        ("ce1.parallel", _close(b["parallel"], r["parallel_expected"], tol), b["parallel"]),
        ("ce1.straight", _close(b["straight"], r["straight_expected"], tol), b["straight"]),
        ("ce1.total_closed_form", _close(b["total"], total_closed, tol), b["total"]),
        ("ce1.certificate_energy", _rel_close(energy, v["best_energy"], 1e-8)
         and energy < v["reference_energy"] - 10 * v["error_estimate"], energy),
    ]
    return StepResult({"breakdown": b, "verdict": _verdict_outputs(v)}, checks,
                      v["budget_used"], report["wall_time_s"])


def _check_ce2(report: dict) -> StepResult:
    from bdlab.densities import anisotropic_trace_density

    r = report["results"]
    b, v, tol = r["breakdown"], r["verdict"], r["tolerance"]
    energy = _competitor_energy(v, anisotropic_trace_density(report["inputs"]["eps"]))
    checks = [
        ("ce2.status", v["status"] == "VIOLATION", v["status"]),
        ("ce2.lower_edge", _close(b["lower_edge"], r["lower_edge_expected"], tol), b["lower_edge"]),
        ("ce2.upper_edge", _close(b["upper_edge"], r["upper_edge_expected"], tol), b["upper_edge"]),
        ("ce2.outer_chord", _close(b["outer_chord"], r["chord_expected"], tol), b["outer_chord"]),
        ("ce2.straight", _close(b["straight"], r["straight_expected"], tol), b["straight"]),
        ("ce2.certificate_energy", _rel_close(energy, v["best_energy"], 1e-8)
         and energy < v["reference_energy"] - 10 * v["error_estimate"], energy),
    ]
    return StepResult({"breakdown": b, "verdict": _verdict_outputs(v)}, checks,
                      v["budget_used"], report["wall_time_s"])


def _check_no_violation(label: str, reference_closed: float):
    def check(report: dict) -> StepResult:
        v = report["results"]
        floor = v["reference_energy"] - 10 * v["error_estimate"]
        checks = [
            (f"{label}.status", v["status"] != "VIOLATION", v["status"]),
            (f"{label}.best_above_reference", v["best_energy"] >= floor, v["best_energy"]),
            (f"{label}.reference_energy",
             _rel_close(v["reference_energy"], reference_closed, 1e-8), v["reference_energy"]),
        ]
        return StepResult({"verdict": _verdict_outputs(v)}, checks,
                          v["budget_used"], report["wall_time_s"])

    return check


def _search(seed: int, size: dict, workdir: str) -> list[Step]:
    budget, s = str(size["budget"]), str(seed)
    # f = |i - j| |nu| on a unit normal: 2 sqrt(2) per unit length, side 6
    oblique_ref = 2 * np.sqrt(2) * 6.0
    return [
        _cli_step("repro-ce1", ["repro-ce1", "--budget", budget, "--seed", s],
                  workdir, _check_ce1),
        _cli_step("repro-ce2", ["repro-ce2", "--budget", budget, "--seed", s],
                  workdir, _check_ce2),
        _cli_step("falsify-oblique",
                  ["falsify", "--density", "isotropic:id", "--i", "0,0", "--j", "2,2",
                   "--nu", "0.6,0.8", "--budget", budget, "--seed", s],
                  workdir, _check_no_violation("oblique", oblique_ref)),
    ]


# ---------------------------------------------------------------------------
# dalmot-search: a falsify run dominated by the sup-over-bases density


def _dalmot_search(seed: int, size: dict, workdir: str) -> list[Step]:
    from bdlab.densities import density_biconvex_frobenius

    frob = density_biconvex_frobenius()
    base = _check_no_violation("dalmot", 6.0 * float(frob(I_CE, J_CE, E2)))

    def check(report: dict) -> StepResult:
        result = base(report)
        v = report["results"]
        # the sup over bases of the abs profile is the Frobenius norm in closed form
        energy = _competitor_energy(v, frob)
        result.checks.append(
            ("dalmot.competitor_vs_frobenius", _rel_close(energy, v["best_energy"], 1e-8),
             energy)
        )
        return result

    # the search path, and with it the density work, varies by about 13 %
    # from one falsify seed to the next; a few seeds per iteration average
    # that out of the run-to-run spread
    runs = size["dalmot_runs"]
    return [
        _cli_step(f"falsify-dalmot-{k}",
                  ["falsify", "--density", "dalmot:abs", "--i", "0,0", "--j", "2,2",
                   "--nu", "0,1", "--budget", str(size["dalmot_budget"]),
                   "--seed", str(runs * seed + k)],
                  workdir, check)
        for k in range(runs)
    ]


# ---------------------------------------------------------------------------
# density-scan: the sampled necessary-condition checks over the whole catalog

VIOLATION_KEYS = ("symmetry_violation", "subadditivity_violation", "convexity_violation")


def _density_scan(seed: int, size: dict, workdir: str) -> list[Step]:
    from bdlab.densities import CATALOG_IDS

    samples = size["samples"]
    seen: dict[str, dict] = {}

    def check_for(fid: str):
        def check(report: dict) -> StepResult:
            r = report["results"]
            seen[fid] = r
            checks = [
                (f"{fid}.passes_necessary", r["passes_necessary"] is True, r["passes_necessary"]),
                (f"{fid}.symmetric", r["symmetry_violation"] <= 1e-10, r["symmetry_violation"]),
            ]
            if fid == "frobenius" and "dalmot:abs" in seen:
                d = seen["dalmot:abs"]
                for key in VIOLATION_KEYS:
                    checks.append((f"dalmot_vs_frobenius.{key}",
                                   _close(d[key], r[key], 1e-8), d[key] - r[key]))
            outputs = {k: r[k] for k in VIOLATION_KEYS + ("passes_necessary",)}
            return StepResult(outputs, checks, samples, report["wall_time_s"])

        return check

    return [
        _cli_step(f"density-check-{k:02d}",
                  ["density-check", "--density", fid, "--samples", str(samples),
                   "--seed", str(seed)],
                  workdir, check_for(fid))
        for k, fid in enumerate(CATALOG_IDS)
    ]


# ---------------------------------------------------------------------------
# identities: divergence identity, integration by parts, tiling bookkeeping


def _identities(seed: int, size: dict, workdir: str) -> list[Step]:
    # timed calls go through the module attributes, which the traced run wraps
    from bdlab import ellipticity, energy
    from bdlab.densities import anisotropic_normal_density
    from bdlab.fields import catalog_fields, prototype_field
    from bdlab.functions import AffinePiece, PiecewiseAffine
    from bdlab.geometry import GeometryError, Polygon, PolygonalPartition, make_oriented_square
    from bdlab.profiles import sin_profile

    rng = np.random.default_rng([seed, 1])
    side = 6.0

    # flux: seeded parameters for every default family, validated once here
    families = ellipticity.default_families(I_CE, J_CE, E2, side=side)
    params = []
    for fam in families:
        kept = 0
        while kept < size["flux_per_family"]:
            p = tuple(float(rng.uniform(lo, hi)) for lo, hi in fam.bounds)
            try:
                fam.generator(p)
            except (GeometryError, ValueError):
                continue
            params.append((fam, p))
            kept += 1
    fields = catalog_fields(I_CE, J_CE, E2).fields

    def flux_run():
        out = []
        for fam, p in params:
            v = fam.generator(p)
            for g in fields:
                out.append((fam.name, g.name, energy.jump_flux(v, g, tol=1e-12).value))
        return out

    def flux_check(rows) -> StepResult:
        want = {g.name: float(g.pairing(J_CE, I_CE, E2)) * side for g in fields}
        checks = [
            (f"flux.{fam}.{g}", abs(val - want[g]) < 1e-8 * side, val - want[g])
            for fam, g, val in rows
        ]
        return StepResult({"flux": rows}, checks, len(rows))

    # integration by parts: seeded affine functions on one and two cells
    dom = make_oriented_square(E2, 2.0)
    two = PolygonalPartition(
        [Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)]), Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])],
        dom,
    )
    one = PolygonalPartition([dom], dom)
    functions = []
    for k in range(size["ibp_functions"]):
        part = one if k % 4 == 0 else two
        functions.append(PiecewiseAffine(part, [
            AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2))
            for _ in part.cells
        ]))
    G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
    bumps = [energy.bump_from_polygon(dom, power=p) for p in (2, 3)]

    def ibp_run():
        return [
            (k, b, vo, energy.integration_by_parts_residual(
                u, G, phi, tol=1e-9, volume_order=vo, line_order=lo))
            for k, u in enumerate(functions)
            for b, phi in enumerate(bumps)
            for vo, lo in ((8, 15), (16, 30))
        ]

    def ibp_check(rows) -> StepResult:
        checks = [(f"ibp.{k}.{b}.{vo}", r < 1e-7, r) for k, b, vo, r in rows]
        return StepResult({"ibp": rows}, checks, len(rows))

    # tiling: the unit-square rescaling of the square-insert competitor
    v_unit = ellipticity.counterexample1_competitor(1.0).scaled(1.0 / side)
    f_tile = anisotropic_normal_density(0.01)
    hs = tuple(range(1, size["tiles"] + 1))

    def tiling_run():
        return ellipticity.tiling_report(v_unit, I_CE, J_CE, E2, f_tile, hs=hs, i_side="minus")

    def tiling_check(reps) -> StepResult:
        checks = [(f"tiling.{r['h']}", r["relative_defect"] < 1e-9, r["relative_defect"])
                  for r in reps]
        return StepResult({"tiling": reps}, checks, len(reps))

    return [
        Step("jump-flux", flux_run, flux_check),
        Step("ibp", ibp_run, ibp_check),
        Step("tiling", tiling_run, tiling_check),
    ]


_STEP_FACTORIES = {
    "search": _search,
    "dalmot-search": _dalmot_search,
    "density-scan": _density_scan,
    "identities": _identities,
}


def build(name: str, seed: int, smoke: bool, workdir: str) -> list[Step]:
    """Steps of one workload iteration; inputs depend only on the seed."""
    return _STEP_FACTORIES[name](seed, SIZES[smoke], workdir)
