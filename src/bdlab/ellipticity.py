"""Ellipticity falsification by competitor search.

A density f is tested against the reference energy f(i,j,nu) * L of the
straight interface: competitors are piecewise rigid functions agreeing with
the two-valued jump near the boundary of an oriented square.  Finding one
with lower energy certifies that f is not elliptic for rigid competitors;
not finding one within budget is evidence, never proof.

Competitor families are authored on a side-6 square (the scale of the
reference constructions) and energies are normalized per unit interface
length, which is invariant under rescaling.  The built-in families are
insert layouts with one cell topology each; the search evaluates them
through that compiled topology, and certifies its best competitor on the
general path, built as a partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .densities import Density, check_convexity_in_nu, check_subadditivity
from .energy import integrate_jump_arrays, integrate_jump_sets, surface_energy
from .functions import (
    FunctionError,
    JumpArrays,
    JumpSquareTopology,
    PiecewiseRigid,
    compact_deviation,
    constant_piece,
    jump_sides,
    jump_square,
    make_elementary,
    rigid_piece,
)
from .geometry import (
    GeometryError,
    OrientedSquare,
    Polygon,
    frame_from_normal,
    unit,
)
from .report import Report

E2 = np.array([0.0, 1.0])


class EllipticityError(ValueError):
    """Invalid falsification input."""


# the errors of an infeasible competitor: the search gives it the sentinel
_REJECTED = (GeometryError, FunctionError, EllipticityError)


def insert_competitor(
    i,
    j,
    nu,
    inner_cells_frame,
    inner_pieces,
    half_width: float,
    half_height: float,
    side: float = 6.0,
    i_side: str = "minus",
) -> PiecewiseRigid:
    """Piecewise rigid competitor: two-valued jump outside a rectangular
    insert carrying the given cells and pieces (frame coordinates)."""
    if not _insert_inside(half_width, half_height, side):
        raise EllipticityError("insert must sit strictly inside the square")
    return jump_square(
        i, j, unit(nu), side, i_side=i_side,
        hole=(half_width, -half_height, half_height),
        cells=inner_cells_frame, pieces=inner_pieces,
    )


def _insert_inside(half_width, half_height, side) -> bool:
    return 0 < half_width < 0.5 * side and 0 < half_height < 0.5 * side


# Insert layouts: params -> (cells in frame coordinates, pieces, half width,
# half height), the arguments of insert_competitor after (i, j, nu).


def _centered_square(h: float) -> np.ndarray:
    return np.array([[-h, -h], [h, -h], [h, h], [-h, h]])


def _square_layout(s, omega, b1, b2):
    """Side-s square carrying the rigid motion (omega, (b1, b2))."""
    h = 0.5 * s
    return [_centered_square(h)], [rigid_piece(omega, (b1, b2))], h, h


def _rect_layout(delta, omega, b1, b2):
    """2 x 2 delta rectangle carrying the rigid motion (omega, (b1, b2))."""
    cells = [np.array([[-1, -delta], [1, -delta], [1, delta], [-1, delta]])]
    return cells, [rigid_piece(omega, (b1, b2))], 1.0, delta


def _checker_layout(s, v1, v2, w1, w2):
    """Side-s square in four quarters alternating the values v and w."""
    hh = 0.5 * s
    vals = (np.array([v1, v2]), np.array([w1, w2]))
    cells, pieces = [], []
    for a in range(2):
        for b in range(2):
            x0, y0 = -hh + a * hh, -hh + b * hh
            cells.append(np.array([[x0, y0], [x0 + hh, y0], [x0 + hh, y0 + hh], [x0, y0 + hh]]))
            pieces.append(constant_piece(vals[(a + b) % 2]))
    return cells, pieces, hh, hh


def _nested_layout(s1, frac, om1, b11, b12, om2, b21, b22):
    """Side-s1 square ring (four trapezoids, motion 1) around a centered
    side-frac*s1 square (motion 2)."""
    h1, h2 = 0.5 * s1, 0.5 * (frac * s1)
    outer_sq, inner_sq = _centered_square(h1), _centered_square(h2)
    cells = [inner_sq] + [
        np.array([outer_sq[k], outer_sq[(k + 1) % 4], inner_sq[(k + 1) % 4], inner_sq[k]])
        for k in range(4)
    ]
    pieces = [rigid_piece(om2, (b21, b22))] + [rigid_piece(om1, (b11, b12))] * 4
    return cells, pieces, h1, h1


def counterexample1_competitor(lam: float) -> PiecewiseRigid:
    """Square-insert competitor on the side-6 square oriented by e2.

    The inner side-2 square carries the rigid motion (omega, b) =
    (lam, (lam, lam)) between the values i = 0 (lower side) and
    j = (2 lam, 2 lam) (upper side); its first component is continuous
    across the lower insert edge, so the parallel jump integrates to
    (8 sqrt(2) + 4) lam while the straight interface costs 12 sqrt(2) lam.
    """
    if not lam > 0:
        raise EllipticityError("lam must be positive")
    layout = _square_layout(2.0, lam, lam, lam)
    return insert_competitor(np.zeros(2), np.full(2, 2.0 * lam), E2, *layout)


def counterexample2_competitor(lam: float, eps: float) -> PiecewiseRigid:
    """Thin-rectangle competitor (half height delta = eps^(1/4)) with the
    rigid motion (lam/delta, (lam, lam/delta)) inside."""
    if not lam > 0:
        raise EllipticityError("lam must be positive")
    if not 0 < eps < 1:
        raise EllipticityError("eps must lie in (0, 1)")
    delta = eps ** 0.25
    layout = _rect_layout(delta, lam / delta, lam, lam / delta)
    return insert_competitor(np.zeros(2), np.full(2, 2.0 * lam), E2, *layout)


def _parallel(jumps) -> np.ndarray:
    return np.abs(np.abs(jumps.normal[:, 1]) - 1.0) <= 1e-9


def _perpendicular(jumps) -> np.ndarray:
    return np.abs(jumps.normal[:, 1]) <= 1e-9


def _parallel_at(y: float):
    return lambda j: _parallel(j) & (np.abs(0.5 * (j.a[:, 1] + j.b[:, 1]) - y) < 1e-9)


def _breakdown(u: PiecewiseRigid, f: Density, groups: dict) -> dict:
    """Energy of each named group of jump pieces, their total and error.

    `groups` maps names to functions giving row masks of the jump set; every
    piece must be in exactly one group, so the groups cover the jump set once.
    """
    jumps = u.jump_segments()
    masks = {name: group(jumps) for name, group in groups.items()}
    if np.any(sum(masks.values()) != 1):
        raise EllipticityError("jump segment outside the breakdown groups")
    out, err = {}, 0.0
    for name, mask in masks.items():
        res = integrate_jump_arrays(jumps.take(np.flatnonzero(mask)), f, tol=1e-12, order=15)
        out[name] = res.value
        err += res.error_estimate
    out["total"] = sum(out.values())
    out["error_estimate"] = err
    return out


def ce1_energy_breakdown(lam: float = 1.0, eps: float = 0.01) -> dict:
    """Exact energy bookkeeping for the square-insert competitor."""
    from .densities import anisotropic_normal_density

    u = counterexample1_competitor(lam)
    f = anisotropic_normal_density(eps)
    out = _breakdown(u, f, {"parallel": _parallel, "perpendicular": _perpendicular})
    out["straight"] = float(f(np.zeros(2), np.array([2 * lam, 2 * lam]), E2)) * 6.0
    jumps = u.jump_segments()
    out["parallel_length"] = sum(jumps.t1[_parallel(jumps)].tolist())
    out["perpendicular_length"] = sum(jumps.t1[_perpendicular(jumps)].tolist())
    return out


def ce2_energy_breakdown(lam: float = 1.0, eps: float = 1e-4) -> dict:
    """Exact energy bookkeeping for the thin-rectangle competitor."""
    from .densities import anisotropic_trace_density

    delta = eps ** 0.25
    f = anisotropic_trace_density(eps)
    groups = {
        "lower_edge": _parallel_at(-delta),
        "upper_edge": _parallel_at(delta),
        "outer_chord": _parallel_at(0.0),
        "perpendicular": _perpendicular,
    }
    out = _breakdown(counterexample2_competitor(lam, eps), f, groups)
    out["straight"] = float(f(np.zeros(2), np.array([2 * lam, 2 * lam]), E2)) * 6.0
    out["delta"] = delta
    return out


def tile_construction(
    v: PiecewiseRigid,
    i,
    j,
    nu,
    h: int,
    i_side: str = "plus",
    ambient_side: float = 3.0,
) -> PiecewiseRigid:
    """Tile h scaled copies of v into the strip {0 < <x, nu> < 1/h}.

    v must live on the unit square oriented by nu and deviate compactly from
    the elementary (i, j) jump.  Outside the strip the output equals that
    elementary jump on the side-`ambient_side` square; rigid pieces (Q, b)
    become (hQ, b - hQ x_n) on the copy centered at x_n, so the output is
    again piecewise rigid with the same trace values.
    """
    if h < 1 or int(h) != h:
        raise EllipticityError("tile count h must be a positive integer")
    h = int(h)
    nu = unit(nu)
    dom = v.partition.domain
    if abs(dom.area - 1.0) > 1e-9 or np.linalg.norm(dom.centroid) > 1e-9:
        raise EllipticityError("v must live on the centered unit square")
    ref = make_elementary(i, j, nu, OrientedSquare(nu, 1.0, (0, 0)), i_side=i_side)
    if not compact_deviation(v, ref, margin=1e-9):
        raise EllipticityError("v must deviate compactly from the elementary jump")

    R = frame_from_normal(nu)
    inv_h = 1.0 / h
    cells, pieces = [], []
    for n in range(h):
        xn = R @ np.array([-0.5 + (n + 0.5) * inv_h, 0.5 * inv_h])
        for cell, piece in zip(v.partition.cells, v.pieces):
            cells.append(Polygon(xn + cell.vertices * inv_h))
            A = h * piece.A
            pieces.append(type(piece)(A, piece.b - A @ xn))
    return jump_square(
        i, j, nu, ambient_side, i_side=i_side, hole=(0.5, 0.0, inv_h), cells=cells, pieces=pieces
    )


def tiling_report(
    v: PiecewiseRigid, i, j, nu, f: Density, hs=(1, 2, 4, 8),
    i_side: str = "plus", ambient_side: float = 3.0,
) -> list[dict]:
    """Per-h bookkeeping: tile sum vs F(v), and the boundary mismatch term."""
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    nu = unit(nu)
    R = frame_from_normal(nu)
    base = surface_energy(v, f, tol=1e-12)
    plus_val, minus_val = jump_sides(i, j, i_side)
    chord_density = float(f(plus_val, minus_val, nu))
    out = []
    for h in hs:
        u_h = tile_construction(v, i, j, nu, h, i_side=i_side, ambient_side=ambient_side)
        tiles_sum, tiles_err = 0.0, 0.0
        inv_h = 1.0 / h
        for n in range(h):
            corner = np.array([-0.5 + n * inv_h, 0.0])
            tile_frame = np.array(
                [corner, corner + [inv_h, 0], corner + [inv_h, inv_h], corner + [0, inv_h]]
            )
            tile = Polygon(tile_frame @ R.T)
            res = surface_energy(u_h, f, region=tile, tol=1e-12, include_boundary=False)
            tiles_sum += res.value
            tiles_err += res.error_estimate
        total = surface_energy(u_h, f, tol=1e-12)
        chord = chord_density * (ambient_side - 1.0)
        out.append(
            {
                "h": h,
                "tile_energy_sum": tiles_sum,
                "reference_energy": base.value,
                "relative_defect": abs(tiles_sum - base.value) / base.value,
                "total_energy": total.value,
                "outer_chord_energy": chord,
                "boundary_contribution": total.value - tiles_sum - chord,
                "error_estimate": tiles_err + total.error_estimate + base.error_estimate,
            }
        )
    return out


# ---------------------------------------------------------------------------
# competitor families and the search


@dataclass(frozen=True)
class CompetitorFamily:
    """Parametric family of compactly-deviating piecewise rigid competitors."""

    name: str
    bounds: tuple
    generator: object  # params -> PiecewiseRigid
    suggestions: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class LayoutFamily(CompetitorFamily):
    """A family whose generator is insert_competitor over an insert layout
    with one cell topology, compiled into `topology`."""

    layout: object = None  # params -> insert_competitor's cells, pieces, half width, half height
    topology: JumpSquareTopology | None = None

    def jumps(self, batch):
        """The jump sets of generator(params) for every parameter vector of
        the batch, as (jumps, owner, general): one JumpArrays holding the
        rows of each vector in batch order, the batch index of each row,
        and the indices of the vectors the general generator must judge:
        those outside the bounds, or that a Polygon check might reject (it
        raises for those that are infeasible)."""
        inputs, fast, general = [], [], []
        for n, params in enumerate(batch):
            if all(lo <= p <= hi for p, (lo, hi) in zip(params, self.bounds)):
                try:
                    cells, pieces, hw, hh = self.layout(*params)
                except _REJECTED:
                    cells = None
                if cells is not None and _insert_inside(hw, hh, self.topology.side):
                    inputs.append(((hw, -hh, hh), cells, pieces))
                    fast.append(n)
                    continue
            general.append(n)
        jumps, owner, rejected = self.topology.jumps(inputs)
        fast = np.array(fast, dtype=int)
        return jumps, fast[owner], sorted(general + fast[rejected].tolist())


@dataclass(frozen=True)
class EllipticityVerdict(Report):
    status: str  # "VIOLATION" or "NO-VIOLATION-WITHIN-BUDGET"
    best_energy: float
    reference_energy: float
    margin: float
    normalized_margin: float
    error_estimate: float
    budget_used: int
    best_family: str
    best_params: tuple
    interface_length: float
    cross_check: dict = field(default_factory=dict)
    diagnostics: dict | None = None
    competitor: PiecewiseRigid | None = None


def default_families(i, j, nu, side: float = 6.0, i_side: str = "minus"):
    """Built-in families, one insert layout each: square insert, thin
    rectangle, checkerboard, and two nested squares with independent rigid
    motions."""
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    nu = unit(nu)
    gap = float(np.linalg.norm(i - j))
    if gap == 0.0:
        raise EllipticityError("falsification needs i != j")
    lam = gap / (2.0 * np.sqrt(2.0))
    lo = np.minimum(i, j) - gap
    hi = np.maximum(i, j) + gap
    vec = ((lo[0], hi[0]), (lo[1], hi[1]))  # bounds of a value or a translation
    omega = (-2.0 * gap, 2.0 * gap)
    mid = 0.5 * (i + j)
    R = frame_from_normal(nu)

    def family(name, layout, bounds, suggestions):
        def generator(params):
            return insert_competitor(i, j, nu, *layout(*params), side=side, i_side=i_side)

        clipped = tuple(
            tuple(float(np.clip(p, *bound)) for p, bound in zip(start, bounds))
            for start in suggestions
        )
        # compiled from two in-bounds parameter vectors, which must agree
        examples = []
        for t in (1.0 / 3.0, 2.0 / 3.0):
            cells, pieces, hw, hh = layout(*(lo + t * (hi - lo) for lo, hi in bounds))
            examples.append(((hw, -hh, hh), cells, pieces))
        topology = JumpSquareTopology(i, j, nu, side, examples, i_side=i_side)
        return LayoutFamily(name, bounds, generator, clipped, layout, topology)

    return [
        family(
            "square-insert", _square_layout, ((0.3, 5.6), omega, *vec),
            [(2.0, lam, *mid), (2.0, -lam, *mid)],
        ),
        family(
            "rect-insert", _rect_layout, ((0.02, 0.95), (-40 * gap, 40 * gap), *vec),
            [(d, lam / d, *(i + R @ np.array([lam, lam / d]))) for d in (0.05, 0.1, 0.2, 0.4)],
        ),
        family("checkerboard", _checker_layout, ((0.3, 5.6), *vec, *vec), [(2.0, *i, *j)]),
        family(
            "nested-squares", _nested_layout,
            ((0.5, 5.6), (0.15, 0.85), omega, *vec, omega, *vec),
            [(2.0, 0.5, lam, *mid, lam, *mid)],
        ),
    ]


# Latin-hypercube starts per family, the quadrature tolerance and order of
# the search, and the evaluations of the shortest search run
_RESTARTS = 8
_SEARCH_TOL = 1e-9
_SEARCH_ORDER = 15
_MIN_RUN = 25
# the search value of an infeasible competitor
_SENTINEL = 1e30


def _search_values(f: Density, families, points) -> list[float]:
    """The search objective at (family index, parameters) points: the
    surface energy of each competitor, or the sentinel for one that cannot
    be built.  Layout families give their jump sets in one topology call per
    family, the others through their generator's competitor, and one kernel
    call integrates every jump set."""
    values = [None] * len(points)
    sets, owners = [], []
    for fi in dict.fromkeys(fi for fi, _ in points):
        family = families[fi]
        idx = [k for k, (g, _) in enumerate(points) if g == fi]
        general = range(len(idx))
        if isinstance(family, LayoutFamily):
            jumps, owner, general = family.jumps([points[k][1] for k in idx])
            sets.append(jumps)
            owners.append(np.array(idx, dtype=int)[owner])
        for n in general:
            k = idx[n]
            try:
                jumps = family.generator(points[k][1]).jump_segments()
            except _REJECTED:
                values[k] = _SENTINEL
                continue
            sets.append(jumps)
            owners.append(np.full(len(jumps), k, dtype=int))
    if sets:
        energies = integrate_jump_sets(
            JumpArrays.concatenate(sets), np.concatenate(owners), len(points), f,
            _SEARCH_TOL, _SEARCH_ORDER,
        )
        values = [energies[k].value if v is None else v for k, v in enumerate(values)]
    return values


class _Exhausted(Exception):
    """A Nelder-Mead run asked for an evaluation beyond its budget."""


def _nelder_mead(x0, bounds, maxfev: int):
    """Bounded Nelder-Mead as a generator: it yields a copy of each point
    to evaluate, is sent that point's value, and returns (min(fsim),
    sim[0]).

    Step for step this is scipy 1.17's bounded Nelder-Mead with maxfev,
    xatol 1e-9 and fatol 1e-12: the start clipped to the bounds, the
    initial simplex (5 %, or 0.00025 for a zero coordinate) reflected back
    into them, the coefficients 1, 2, 0.5, 0.5, every trial point clipped,
    an argsort after every step, and a step abandoned where it asks for an
    evaluation beyond maxfev.  The caller evaluates the points, so the
    points of many runs can be evaluated together.
    """
    lower = np.array([float(lo) for lo, _ in bounds])
    upper = np.array([float(hi) for _, hi in bounds])
    x0 = np.clip(np.asarray(x0, dtype=float).ravel(), lower, upper)
    N = x0.size
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full(N + 1, np.inf)
    calls = 0

    def evaluate(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return (yield x.copy())

    def ordered(sim, fsim):
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

    try:
        for k in range(N + 1):
            fsim[k] = yield from evaluate(sim[k])
    except _Exhausted:
        pass
    sim, fsim = ordered(sim, fsim)
    sim, fsim = ordered(sim, fsim)
    while calls < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= 1e-9
                    and np.abs(fsim[0] - fsim[1:]).max() <= 1e-12):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = np.clip(2 * xbar - sim[-1], lower, upper)
            fxr = yield from evaluate(xr)
            if fxr < fsim[0]:
                # expansion
                xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
                fxe = yield from evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # outside contraction if xr improves on the worst, else inside
                if fxr < fsim[-1]:
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
                    fxc = yield from evaluate(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
                    fxc = yield from evaluate(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for k in range(1, N + 1):
                        sim[k] = np.clip(sim[0] + 0.5 * (sim[k] - sim[0]), lower, upper)
                        fsim[k] = yield from evaluate(sim[k])
        except _Exhausted:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.min(fsim), sim[0]


def falsify(
    f: Density,
    i,
    j,
    nu,
    families=None,
    budget: int = 4000,
    seed: int = 0,
    side: float = 6.0,
    i_side: str = "minus",
    keep_competitor: bool = True,
) -> EllipticityVerdict:
    """Derivative-free search for a competitor below the straight-interface
    energy.  VIOLATION requires the margin to exceed ten times the quadrature
    error and the certificate to reproduce at doubled quadrature order, both
    evaluations converged.  The budget caps the objective evaluations and
    must cover one search run.  Layout families are searched through their
    compiled topology; the certificate rebuilds the best competitor with the
    family's generator and integrates it on the general path.
    """
    if budget < _MIN_RUN:
        raise EllipticityError(f"budget must be at least {_MIN_RUN} evaluations")
    i = np.asarray(i, dtype=float)
    j = np.asarray(j, dtype=float)
    if np.array_equal(i, j):
        raise EllipticityError("falsification needs i != j")
    jump_sides(i, j, i_side)
    nu_u = unit(nu)
    if families is None:
        families = default_families(i, j, nu_u, side=side, i_side=i_side)
    if not families:
        raise EllipticityError("need at least one competitor family")

    reference_norm = float(f(i, j, nu_u))
    reference_energy = reference_norm * side

    runs = []
    for fi, family in enumerate(families):
        ss = np.random.SeedSequence([seed, fi])
        sampler = qmc.LatinHypercube(d=family.dim, seed=np.random.default_rng(ss))
        lob = np.array([b[0] for b in family.bounds])
        hib = np.array([b[1] for b in family.bounds])
        starts = [lob + (hib - lob) * row for row in sampler.random(n=_RESTARTS)]
        starts = list(family.suggestions) + starts
        for si, start in enumerate(starts):
            runs.append((fi, si, family, start))

    per_run = max(_MIN_RUN, budget // max(len(runs), 1))
    searched = runs[: max(1, budget // per_run)]
    stats = [
        {"name": fam.name, "runs": 0, "dropped_runs": 0, "evaluations": 0, "rejected": 0}
        for fam in families
    ]
    for r, (fi, *_) in enumerate(runs):
        stats[fi]["runs" if r < len(searched) else "dropped_runs"] += 1

    # the runs advance in lockstep: each round evaluates the pending point
    # of every live run together
    searches = [_nelder_mead(start, family.bounds, per_run) for _, _, family, start in searched]
    pending = {r: next(search) for r, search in enumerate(searches)}
    outcomes = [None] * len(searches)
    while pending:
        live = list(pending)
        values = _search_values(f, families, [(searched[r][0], pending[r]) for r in live])
        for r, value in zip(live, values):
            st = stats[searched[r][0]]
            st["evaluations"] += 1
            st["rejected"] += int(value >= _SENTINEL)
            try:
                pending[r] = searches[r].send(value)
            except StopIteration as stop:
                del pending[r]
                outcomes[r] = stop.value

    results = [
        (float(val), fi, si, tuple(np.asarray(x, dtype=float)), family.name)
        for (val, x), (fi, si, family, _) in zip(outcomes, searched)
    ]
    for fi, st in enumerate(stats):
        st["best_value"] = min((r[0] for r in results if r[1] == fi), default=None)
    diagnostics = {
        "families": stats,
        "dropped_families": [st["name"] for st in stats if st["runs"] == 0],
    }

    best = min(results, key=lambda r: (r[0], r[1], r[2]))
    best_val, best_fi, _, best_params, best_name = best

    # rebuild and certify the best competitor with two independent evaluations
    family = families[best_fi]
    status = "NO-VIOLATION-WITHIN-BUDGET"
    err = 0.0
    cross = {}
    competitor = None
    if best_val < _SENTINEL:
        competitor = family.generator(best_params)
        e1 = surface_energy(competitor, f, tol=1e-11, order=15)
        e2 = surface_energy(competitor, f, tol=1e-13, order=30)
        best_val = e1.value
        err = max(e1.error_estimate, e2.error_estimate, abs(e1.value - e2.value))
        cross = {
            "value_default_order": e1.value,
            "value_doubled_order": e2.value,
            "difference": abs(e1.value - e2.value),
        }
        ok_margin = best_val < reference_energy - 10.0 * err
        # a certificate rests on converged quadrature only
        ok_cert = abs(e1.value - e2.value) <= 1e-9 and e1.unconverged == e2.unconverged == 0
        ok_compact = compact_deviation(
            competitor,
            make_elementary(i, j, nu_u, OrientedSquare(nu_u, side, (0, 0)), i_side=i_side),
            margin=1e-3 * side,
        )
        if ok_margin and ok_cert and ok_compact:
            status = "VIOLATION"

    margin = reference_energy - best_val
    return EllipticityVerdict(
        status=status,
        best_energy=best_val,
        reference_energy=reference_energy,
        margin=margin,
        normalized_margin=margin / side,
        error_estimate=err,
        budget_used=sum(st["evaluations"] for st in stats),
        best_family=best_name,
        best_params=best_params,
        interface_length=side,
        competitor=competitor if keep_competitor else None,
        cross_check=cross,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class RelaxationEstimate(Report):
    value: float
    density_value: float
    verdict: EllipticityVerdict


def relaxation_estimate(
    f: Density, i, j, nu, families=None, budget: int = 4000, seed: int = 0, **kw
) -> RelaxationEstimate:
    """Upper bound min(f(i,j,nu), best normalized competitor energy) for the
    relaxed density at the triple; elliptic densities return f(i,j,nu)."""
    verdict = falsify(f, i, j, nu, families=families, budget=budget, seed=seed, **kw)
    nu_u = unit(nu)
    fval = float(f(np.asarray(i, float), np.asarray(j, float), nu_u))
    best_norm = verdict.best_energy / verdict.interface_length
    return RelaxationEstimate(min(fval, best_norm), fval, verdict)


@dataclass(frozen=True)
class NecessaryReport(Report):
    subadditivity_violation: float
    convexity_violation: float
    passes_necessary: bool
    label: str
    verdict: EllipticityVerdict | None = None


def bv_necessary_report(
    f: Density,
    samples: int = 10_000,
    seed: int = 0,
    triple=None,
    budget: int = 0,
    extra_subadditivity=(),
) -> NecessaryReport:
    """Bundle the sampled necessary checks; optionally attach a falsification
    verdict at a triple to expose the necessary-pass/falsified separation."""
    sub = check_subadditivity(f, samples=samples, seed=seed, extra=extra_subadditivity)
    conv = check_convexity_in_nu(f, samples=samples, seed=seed)
    passes = sub <= 1e-10 and conv <= 1e-10
    verdict = None
    label = "necessary-pass" if passes else "necessary-fail"
    if triple is not None and budget > 0:
        ti, tj, tnu = triple
        verdict = falsify(f, ti, tj, tnu, budget=budget, seed=seed, keep_competitor=False)
        if passes and verdict.status == "VIOLATION":
            label = "BV-type-necessary-pass / BD-falsified"
        elif passes:
            label = "necessary-pass / no violation found"
    return NecessaryReport(sub, conv, passes, label, verdict)
