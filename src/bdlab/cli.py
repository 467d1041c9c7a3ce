"""Batch command-line front end.

Subcommands mirror the library surface: density checks, energy evaluation,
field verification, falsification, relaxation estimates, the two violation
reproductions, rendering, and scenario files.  Exit codes: 0 success, 1 input
or usage error, 2 expected violation not found (repro modes).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from dataclasses import asdict
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .densities import anisotropic_normal_density, anisotropic_trace_density, catalog_density
from .ellipticity import (
    NECESSARY_TOL,
    bv_necessary_report,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    falsify,
    relaxation_estimate,
)
from .energy import bump_from_polygon, integration_by_parts_residual, surface_energy
from .fields import catalog_fields, check_conservative, prototype_field
from .functions import AffinePiece, FunctionError, PiecewiseAffine, PiecewiseRigid
from .geometry import Polygon, PolygonalPartition, make_oriented_square
from .profiles import sin_profile
from .render import render_svg
from .report import jsonable


def _vec(text: str) -> np.ndarray:
    return np.asarray([float(t) for t in text.split(",")], dtype=float)


def _count(text: str) -> int:
    """The argparse type of a count option: an integer of at least 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """The argparse type of a tolerance option: a finite positive number."""
    try:
        if 0 < float(text) < np.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")


def _write_report(report: dict, path: str | None):
    payload = json.dumps(jsonable(report), indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _load_function(path: str) -> PiecewiseAffine:
    """A function JSON as PiecewiseRigid, or PiecewiseAffine if a piece is not skew."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return PiecewiseRigid.from_json(data)
    except FunctionError:
        return PiecewiseAffine.from_json(data)


# Handlers take the parsed arguments and return (results, exit code); the
# results of a command with a report mode go into the report that main writes,
# which alone turns them into JSON.


def cmd_density_check(args):
    f = catalog_density(args.density)
    rep = bv_necessary_report(f, samples=args.samples, seed=args.seed)
    return {
        "density": f.name,
        "claimed_class": f.claimed_class,
        "symmetry_violation": rep.symmetry_violation,
        "subadditivity_violation": rep.subadditivity_violation,
        "convexity_violation": rep.convexity_violation,
        "passes_necessary": rep.passes_necessary,
        "tolerance": NECESSARY_TOL,
    }, 0


def cmd_energy_eval(args):
    u = _load_function(args.function)
    res = surface_energy(u, catalog_density(args.density), tol=args.tol)
    return {**asdict(res), "tolerance": args.tol}, 0


def cmd_fields_verify(args):
    fam = catalog_fields()
    rng = np.random.default_rng(args.seed)
    probe = rng.uniform(-8.0, 8.0, size=(512, 2))
    rows = []
    worst = 0.0
    bounds_ok = True
    for k, g in enumerate(fam.fields):
        asym, resid = check_conservative(g, samples=args.samples, seed=args.seed + k)
        mag = float(np.max(np.linalg.norm(g(probe), axis=-1)))
        within = (not g.bounded) or mag <= g.bound + 1e-9
        bounds_ok &= within
        rows.append(
            {
                "field": g.name,
                "bounded": g.bounded,
                "jacobian_asymmetry": asym,
                "potential_residual": resid,
                "max_magnitude": mag,
                "declared_bound": g.bound if np.isfinite(g.bound) else None,
                "within_bound": within,
                "tolerance": 1e-6,
            }
        )
        worst = max(worst, asym, resid)
    return {"fields": rows, "max_residual": worst, "passed": worst < 1e-6 and bounds_ok}, 0


def cmd_search(estimator, args):
    f = catalog_density(args.density)
    ijnu = (_vec(args.i), _vec(args.j), _vec(args.nu))
    return estimator(f, *ijnu, budget=args.budget, seed=args.seed), 0


def _ce1_expected(lam: float, eps: float) -> dict:
    return {
        "parallel_expected": 8.0 * np.sqrt(2.0) * lam + 4.0 * lam,
        "straight_expected": 12.0 * np.sqrt(2.0) * lam,
        "tolerance": 1e-8,
    }


def _ce2_expected(lam: float, eps: float) -> dict:
    delta = eps**0.25
    return {
        "lower_edge_expected": np.sqrt(eps) * 2.0 * lam / delta,
        "upper_edge_expected": np.sqrt(eps)
        * (lam / delta)
        * (2.0 * delta**2 + 2.0 * (1.0 - delta) ** 2),
        "chord_expected": 8.0 * np.sqrt(1.0 + eps) * lam,
        "straight_expected": 12.0 * np.sqrt(1.0 + eps) * lam,
        "tolerance": 1e-10,
    }


def cmd_repro(breakdown_fn, density_fn, expected_fn, args):
    """A counterexample reproduction: the exact energy breakdown, the expected
    values, and a falsify run at (0, 0) | (2 lam, 2 lam) across e2; with
    --sweep-eps, a CSV row per eps."""

    def search(eps, **kw):
        return falsify(
            density_fn(eps),
            (0.0, 0.0),
            (2.0 * args.lam, 2.0 * args.lam),
            (0.0, 1.0),
            budget=args.budget,
            seed=args.seed,
            **kw,
        )

    breakdown = breakdown_fn(args.lam, args.eps)
    verdict = search(args.eps)
    if args.sweep_eps:
        rows = []
        for eps in (float(t) for t in args.sweep_eps.split(",")):
            b = breakdown_fn(args.lam, eps)
            v = search(eps, keep_competitor=False)
            rows.append(
                {
                    "eps": eps,
                    "competitor_energy": b["total"],
                    "straight_energy": b["straight"],
                    "best_found_energy": v.best_energy,
                    "margin": v.margin,
                    "status": v.status,
                }
            )
        path = args.csv or f"{args.command.removeprefix('repro-')}_sweep.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    results = {
        "breakdown": breakdown,
        **expected_fn(args.lam, args.eps),
        "verdict": verdict,
    }
    return results, 0 if verdict.status == "VIOLATION" else 2


def cmd_ibp_check(args):
    rng = np.random.default_rng(args.seed)
    dom = make_oriented_square((0.0, 1.0), 2.0)
    bottom = Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)])
    top = Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])
    part = PolygonalPartition([bottom, top], dom)
    G = prototype_field(np.eye(2), (sin_profile(0.8, 2.0), sin_profile(0.6, 3.0)))
    phi = bump_from_polygon(dom, power=2)
    rows = []
    for k in range(args.cases):
        u = PiecewiseAffine(
            part,
            [
                AffinePiece(rng.normal(scale=0.5, size=(2, 2)), rng.normal(size=2)),
                AffinePiece(rng.normal(scale=0.5, size=(2, 2)), rng.normal(size=2)),
            ],
        )
        res = integration_by_parts_residual(u, G, phi, tol=1e-10)
        rows.append({"case": k, "residual": res})
    worst = max(r["residual"] for r in rows)
    return {
        "cases": rows,
        "max_residual": worst,
        "tolerance": 1e-7,
        "passed": worst < 1e-7,
        "unbounded_fields_admitted": "linear fields on bounded domains are "
        "outside the literal hypotheses and flagged by bounded=False",
    }, 0


def cmd_render(args):
    svg = render_svg(_load_function(args.function), width=args.width, style=args.style)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return None, 0


def cmd_run(args):
    """Run a scenario: "mode" names the subcommand, every other key is one of
    its long options (sweep_eps -> --sweep-eps, lists joined by commas, null
    for the default)."""
    with open(args.scenario) as fh:
        sc = json.load(fh)
    mode = sc.pop("mode", None) if isinstance(sc, dict) else None
    command = "energy-eval" if mode == "eval" else mode
    if command not in COMMANDS or command == "run":
        print(f"unknown scenario mode {mode!r}", file=sys.stderr)
        return None, 1
    flags = {flag for flag, _ in _options(COMMANDS[command])}
    argv = [command]
    for key, value in sc.items():
        flag = f"--{key.replace('_', '-')}"
        if flag not in flags:  # argparse alone would accept a prefix of a flag
            print(f"unknown scenario key {key!r} for mode {mode!r}", file=sys.stderr)
            return None, 1
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            argv.append(f"{flag}={value}")
    return None, main(argv)


class Command(NamedTuple):
    help: str
    mode: str | None  # report mode; None for commands that write no report
    handler: Callable
    options: tuple  # (flag, add_argument keywords); reports also get --out


def _repro_options(eps: float) -> tuple:
    return (
        ("--lam", dict(type=float, default=1.0)),
        ("--eps", dict(type=float, default=eps)),
        ("--budget", dict(type=int, default=600)),
        ("--seed", dict(type=int, default=0)),
        ("--sweep-eps", dict(help="comma-separated eps values for a CSV sweep")),
        ("--csv", dict(help="CSV path for the sweep table")),
    )


_SEARCH_OPTIONS = (
    ("--density", dict(required=True)),
    ("--i", dict(required=True, help="the value below the chord, on the side -nu: x,y")),
    ("--j", dict(required=True, help="the value on the side nu points into: x,y; the "
                                      "straight interface costs f(j, i, nu) per unit length")),
    ("--nu", dict(required=True)),
    ("--budget", dict(type=int, default=2000)),
    ("--seed", dict(type=int, required=True)),
)

COMMANDS = {
    "density-check": Command(
        "sampled necessary-condition checks", "density-check", cmd_density_check,
        (("--density", dict(required=True)), ("--samples", dict(type=_count, default=10_000)),
         ("--seed", dict(type=int, default=0))),
    ),
    "energy-eval": Command(
        "surface energy of a function JSON", "energy-eval", cmd_energy_eval,
        (("--function", dict(required=True)), ("--density", dict(required=True)),
         ("--tol", dict(type=_tolerance, default=1e-10))),
    ),
    "fields-verify": Command(
        "conservativity checks for catalog fields", "fields-verify", cmd_fields_verify,
        (("--samples", dict(type=_count, default=150)), ("--seed", dict(type=int, default=0))),
    ),
    "falsify": Command(
        "competitor search against a density", "falsify", partial(cmd_search, falsify),
        _SEARCH_OPTIONS,
    ),
    "relax": Command(
        "upper bound for the relaxed density", "relax-estimate",
        partial(cmd_search, relaxation_estimate), _SEARCH_OPTIONS,
    ),
    "repro-ce1": Command(
        "square-insert violation reproduction", "repro-ce1",
        partial(cmd_repro, ce1_energy_breakdown, anisotropic_normal_density, _ce1_expected),
        _repro_options(0.01),
    ),
    "repro-ce2": Command(
        "thin-rectangle violation reproduction", "repro-ce2",
        partial(cmd_repro, ce2_energy_breakdown, anisotropic_trace_density, _ce2_expected),
        _repro_options(1e-4),
    ),
    "ibp-check": Command(
        "integration-by-parts residual suite", "ibp-check", cmd_ibp_check,
        (("--cases", dict(type=_count, default=5)), ("--seed", dict(type=int, default=0))),
    ),
    "render": Command(
        "SVG drawing of a function JSON", None, cmd_render,
        (("--function", dict(required=True)), ("--out", dict(required=True)),
         ("--width", dict(type=int, default=640)),
         ("--style", dict(choices=("default", "plain"), default="default"))),
    ),
    "run": Command("execute a scenario JSON", None, cmd_run, (("scenario", {}),)),
}


def _options(cmd: Command) -> tuple:
    return cmd.options + ((("--out", {}),) if cmd.mode else ())


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process on first use:
    parsing leaves it as it was, so main and scenario runs share it."""
    ap = argparse.ArgumentParser(prog="bdlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag, kw in _options(cmd):
            p.add_argument(flag, **kw)
    return ap


def _glue_negative_values(argv: list) -> list:
    """'--i -1,0' -> '--i=-1,0': argparse takes a token that starts with '-'
    for an option unless it is a plain negative number."""
    out = []
    for tok in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_glue_negative_values(argv))
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return 0 if exc.code == 0 else 1
    cmd = COMMANDS[args.command]
    try:
        t0 = time.time()
        results, code = cmd.handler(args)
        if cmd.mode:
            report = {
                "mode": cmd.mode,
                "inputs": {k: v for k, v in vars(args).items() if k != "out"},
                "versions": {"bdlab": __version__},
                "results": results,
                "wall_time_s": time.time() - t0,
            }
            _write_report(report, args.out)
        return code
    except FileNotFoundError as exc:
        print(f"input file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
