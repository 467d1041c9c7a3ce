"""Count the NumPy calls of the default families, of a process's first
search round and of one search round.

    PYTHONPATH=<checkout>/src python tools/npcalls.py

The families are a first and a second `default_families((0, 0), (2, 2),
e2)` call in one process.  A round is one `ellipticity._search_values` call
over those families at 40 and at 80 points, dealt to the four families in
turn and drawn inside their bounds from a fixed seed, with `isotropic:id`
(integrated in closed form).  The first round of the process, at 40
points, pays what is compiled once per process and once per composition
wherever a checkout compiles it: each layout's cell topology and the
round's index arrays (a checkout that compiles the topologies in its first
`default_families` call counts them there).  Every later round is counted
after a first round of the same points, so those one-time costs stay out,
and twice: whole, line kernel included, and its geometry alone, with the
kernel entry the round calls (`jump_set_integrals`, or
`integrate_jump_sets` where a checkout has no such entry) replaced by a
stub that returns zero energies, so that count is that of building the jump
sets.  Last, the search protocol of a budget-2000 `falsify` over those
families at seed 0 (40 `_nelder_mead` runs of 50 evaluations each, driven
in lockstep) is counted on a stub objective that gives every point the
value 1.0.  That count is the generators' own NumPy calls: the argsort that
orders each simplex and whatever else a checkout's generators do in NumPy
(none of the round's calls are in it).  Then the three
checks of the `identities` path, each counted after a first identical call:
the `jump_flux` (tol 1e-12) of each of the 8 `catalog_fields` over the
square-insert competitor of counterexample 1, one `tiling_report` of that
competitor rescaled to the unit square (anisotropic-normal density, h =
1..16), and one `integration_by_parts_residual` of a two-cell affine function drawn
from a fixed seed on the side-2 square, with a two-profile prototype field
and the power-2 bump of the square, at volume and line orders 8 and 15.  Last,
one `density-check` of `isotropic:id` and of `dalmot:abs` at 10 000
samples and seed 0, as the CLI runs it (`cli.cmd_density_check`: the
catalog lookup, which builds the density, and one report of the sampled
checks, with the symmetry check wherever the checkout takes it), each
counted after a first identical run.  A NumPy call is a
C function of numpy that `sys.setprofile` reports as called ("c_call"):
numpy's module-level builtins and the methods of ndarrays and ufuncs.  The
profiler does not see numpy.random, which is Cython, so while it counts,
`np.random.default_rng` is replaced by a wrapper that counts each call and
returns a generator whose method calls (`standard_normal`, `random`, ...)
count one each; `np.random.SeedSequence` and its `spawn` stay uncounted.
The profiler does not report ufunc calls, operators or numpy's dispatched
functions such as `np.concatenate` either, so the count is a lower bound,
taken the same way on any checkout whose `_search_values(f, families,
points)` has this signature and which calls `np.random.default_rng` through
the `numpy.random` module.
"""

from __future__ import annotations

import sys
import types

import numpy as np

from bdlab import cli, ellipticity
from bdlab.densities import anisotropic_normal_density, catalog_density
from bdlab.energy import bump_from_polygon, integration_by_parts_residual, jump_flux
from bdlab.fields import catalog_fields, prototype_field
from bdlab.functions import AffinePiece, PiecewiseAffine
from bdlab.geometry import Polygon, PolygonalPartition, make_oriented_square
from bdlab.profiles import sin_profile

SIZES = (40, 80)


def _numpy_owned(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, types.ModuleType):
        module = owner.__name__
    else:
        module = getattr(fn, "__module__", None) or type(owner).__module__
    return module.split(".")[0] == "numpy"


class _CountedGenerator:
    """A numpy.random.Generator whose method calls each call tick() first."""

    def __init__(self, rng, tick):
        self._rng, self._tick = rng, tick

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kw):
            self._tick()
            return attr(*args, **kw)

        return counted


def numpy_calls(run) -> int:
    """The NumPy C calls that run() makes, `np.random.default_rng` and the
    methods of the generators it returns included."""
    count = 0

    def tick():
        nonlocal count
        count += 1

    def profile(frame, event, arg):
        if event == "c_call" and _numpy_owned(arg):
            tick()

    # numpy.random is Cython, whose calls the profiler does not report
    default_rng = np.random.default_rng

    def counted_rng(*args, **kw):
        tick()
        return _CountedGenerator(default_rng(*args, **kw), tick)

    np.random.default_rng = counted_rng
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        np.random.default_rng = default_rng
    return count


def protocol(families) -> None:
    """falsify's search protocol at budget 2000 and seed 0 on a constant
    objective: the runs of `ellipticity._plan`, every live run sent 1.0 each
    round until all stop."""
    runs, per_run, searched = ellipticity._plan(families, 2000, 0)
    searches = [ellipticity._nelder_mead(start, families[fi].bounds, per_run)
                for fi, start in runs[:searched]]
    for search in searches:
        next(search)
    while searches:
        live = []
        for search in searches:
            try:
                search.send(1.0)
                live.append(search)
            except StopIteration:
                pass
        searches = live


def main() -> int:
    args = ((0.0, 0.0), (2.0, 2.0), (0.0, 1.0))
    for call in ("first", "second"):
        calls = numpy_calls(lambda: ellipticity.default_families(*args))
        print(f"{call} default_families call: {calls} numpy calls")
    families = ellipticity.default_families(*args)
    f = catalog_density("isotropic:id")
    rng = np.random.default_rng(0)

    def points(n):
        out = []
        for k in range(n):
            fi = k % len(families)
            lo, hi = np.array(families[fi].bounds).T
            out.append((fi, lo + rng.uniform(size=lo.size) * (hi - lo)))
        return out

    batches = {n: points(n) for n in SIZES}
    first = numpy_calls(lambda: ellipticity._search_values(f, families, batches[SIZES[0]]))
    print(f"first round of the process, {SIZES[0]} points: {first} numpy calls")

    def round_calls(n):
        ellipticity._search_values(f, families, batches[n])  # one-time costs stay out
        return numpy_calls(lambda: ellipticity._search_values(f, families, batches[n]))

    for n in SIZES:
        print(f"{n} points, whole round: {round_calls(n)} numpy calls")
    zeros = np.zeros(max(SIZES))
    if hasattr(ellipticity, "jump_set_integrals"):
        ellipticity.jump_set_integrals = (
            lambda jumps, owner, count, *args, **kw: (zeros[:count],) * 4)
    else:
        ellipticity.integrate_jump_sets = (
            lambda jumps, owner, count, *args, **kw: [types.SimpleNamespace(value=0.0)] * count)
    for n in SIZES:
        print(f"{n} points: {round_calls(n)} numpy calls")
    print(f"search protocol, budget 2000: {numpy_calls(lambda: protocol(families))} numpy calls")
    for name, run in identities_checks() + density_checks():
        run()
        print(f"{name}: {numpy_calls(run)} numpy calls")
    return 0


def density_checks():
    """(name, run) for the density-check runs counted last."""
    return [(f"density-check {fid}, 10000 samples",
             lambda fid=fid: cli.cmd_density_check(
                 types.SimpleNamespace(density=fid, samples=10_000, seed=0)))
            for fid in ("isotropic:id", "dalmot:abs")]


def identities_checks():
    """(name, run) for the jump flux, the tiling report and the
    integration-by-parts residual counted last."""
    e2 = np.array([0.0, 1.0])
    ce1 = ellipticity.counterexample1_competitor(1.0)
    fields = catalog_fields().fields
    v = ce1.scaled(1.0 / 6.0)
    f = anisotropic_normal_density(0.01)
    dom = make_oriented_square(e2, 2.0)
    rng = np.random.default_rng(0)
    u = PiecewiseAffine(PolygonalPartition(
        [Polygon([(-1, -1), (1, -1), (1, 0), (-1, 0)]), Polygon([(-1, 0), (1, 0), (1, 1), (-1, 1)])],
        dom), [AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2)) for _ in range(2)])
    G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
    phi = bump_from_polygon(dom, power=2)
    return [
        ("jump_flux of the 8 catalog fields", lambda: [jump_flux(ce1, g, tol=1e-12)
                                                      for g in fields]),
        ("tiling_report, h = 1..16", lambda: ellipticity.tiling_report(
            v, np.zeros(2), np.array([2.0, 2.0]), e2, f, hs=range(1, 17))),
        ("integration_by_parts_residual, orders 8/15", lambda: integration_by_parts_residual(
            u, G, phi, tol=1e-9, volume_order=8, line_order=15)),
    ]


if __name__ == "__main__":
    sys.exit(main())
