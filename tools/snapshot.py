"""Print bdlab's deterministic numbers, one record a line, for a bit-identity diff.

Run it against two checkouts and compare the outputs:

    PYTHONPATH=<checkout>/src python tools/snapshot.py > <checkout>.txt
    diff parent.txt change.txt

Floats print through repr and arrays as a SHA-256 of their bytes, so a
single changed bit (a -0.0 for a 0.0 included) shows.  It covers:

- every JumpArrays field, the symmetric jump measure, the flipped jump
  normals, the surface energy of every catalog density, `locate` at jump
  midpoints and cell centroids and the SVG drawing in both styles, on
  seeded competitors of the default families (several normals, both i_side
  values);
- the cells and edges each interface of those competitors matches, and
  their `validate_partition` reports, whole and with the last cell removed;
- the `compact_deviation` verdict of each of those competitors against its
  elementary jump, at several margins;
- the CE1 and CE2 energy breakdowns;
- the tiling report for h = 1..16, and digests of each level's jump pieces
  inside each tile, with and without those along the tile boundary;
- the jump flux of the catalog fields and integration-by-parts residuals;
- the CLI reports of every report-writing command, without `wall_time_s`;
- last, the `falsify` status (or `EllipticityError`) of `isotropic:id` and
  `frobenius` at nu = e2, budget 100, seed 0, at small and large values:
  ten (i, j) probes of jumps from 1e-13 to 1e-4, and the grid i = (c, c),
  j = i + r i for c in (1, 1e3, 1e6) and r in (1, 3) x 1e-16 .. 1e-13 and
  1e-12.  Both densities are symmetric jointly convex, so a `VIOLATION`
  there is false.

It uses only public API, so it runs unchanged on checkouts that differ in
their internals.  A run takes about ten seconds on one core.

Byte identity holds for one BLAS kernel.  OpenBLAS picks a kernel for the
host's CPU when it loads, and the BLAS products in bdlab (the frame turns
among them) round differently with and without FMA: on a 2-core AVX-512
Xeon one checkout's output changes in 1262 of its 3815 lines under
`OPENBLAS_CORETYPE=Prescott` and in 741 under `Haswell`, against the
default SkylakeX kernel.  The `certificate` lines and the `falsify`
statuses stay; report fields such as the oblique `falsify`'s domain
vertices and `error_estimate` move.  Compare parent and change on one host,
with `OPENBLAS_CORETYPE` unset.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from bdlab import cli
from bdlab.densities import CATALOG_IDS, anisotropic_normal_density, catalog_density
from bdlab.ellipticity import (
    EllipticityError,
    ce1_energy_breakdown,
    ce2_energy_breakdown,
    counterexample1_competitor,
    default_families,
    falsify,
    tile_construction,
    tiling_report,
)
from bdlab.energy import (
    bump_from_polygon,
    integration_by_parts_residual,
    jump_flux,
    jump_pieces,
    surface_energy,
    symmetric_jump_measure,
)
from bdlab.fields import catalog_fields, prototype_field
from bdlab.functions import (
    AffinePiece,
    JumpArrays,
    PiecewiseAffine,
    compact_deviation,
    make_elementary,
)
from bdlab.geometry import (
    GeometryError,
    OrientedSquare,
    Polygon,
    PolygonalPartition,
    frame_from_normal,
    make_oriented_square,
    validate_partition,
)
from bdlab.profiles import sin_profile
from bdlab.render import render_svg

I_CE = np.zeros(2)
J_CE = np.array([2.0, 2.0])
E2 = np.array([0.0, 1.0])
ANGLES = (0.5 * np.pi, 0.3, 2.2, 4.0)  # normal angles, E2 first
PER_FAMILY = 3  # seeded competitors per family, normal and i_side
MARGINS = (0.006, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)  # compact_deviation margins
# (i, j) of the certificate probes: jumps from 0 and from (1e6, 1e6), then
# the grid j = i + r i at i = (c, c)
SCALE_PROBES = [((0.0, 0.0), (g, g)) for g in (1e-12, 1e-13, 1e-6, 1e-11, 3e-12)] + [
    ((0.0, 0.0), (g, 0.0)) for g in (1e-11, 1e-12, 1e-10)] + [
    ((1e6, 1e6), (1e6 + g, 1e6 + g)) for g in (1e-6, 1e-4)] + [
    ((c, c), (c + r * c, c + r * c)) for c in (1.0, 1e3, 1e6)
    for r in (1e-16, 3e-16, 1e-15, 3e-15, 1e-14, 3e-14, 1e-13, 3e-13, 1e-12)]


def emit(*parts) -> None:
    print(" ".join(str(p) for p in parts))


def digest(x) -> str:
    a = np.ascontiguousarray(x)
    return f"{a.dtype}{list(a.shape)}:{hashlib.sha256(a.tobytes()).hexdigest()[:20]}"


def exact(obj) -> str:
    """JSON with every float in repr form, keys in order."""
    return json.dumps(obj, sort_keys=True, default=lambda o: np.asarray(o).tolist())


def quad(res) -> str:
    return repr((res.value, res.error_estimate, res.segments_evaluated, res.unconverged))


def competitors(rng):
    """(label, function, normal, i_side) for seeded in-bounds parameters of
    every default family; parameter vectors a generator rejects are
    skipped."""
    for angle in ANGLES:
        nu = np.array([np.cos(angle), np.sin(angle)])
        for i_side in ("plus", "minus"):
            for fam in default_families(I_CE, J_CE, nu, i_side=i_side):
                kept = 0
                while kept < PER_FAMILY:
                    params = tuple(float(rng.uniform(lo, hi)) for lo, hi in fam.bounds)
                    try:
                        u = fam.generator(params)
                    except (GeometryError, ValueError):
                        emit("rejected", fam.name, repr(params))
                        continue
                    kept += 1
                    yield f"{fam.name}/{angle!r}/{i_side}/{kept}", u, nu, i_side


def jump_sets() -> None:
    densities = [(fid, catalog_density(fid)) for fid in CATALOG_IDS]
    fields = catalog_fields(I_CE, J_CE, E2).fields
    for label, u, nu, i_side in competitors(np.random.default_rng(20201)):
        jumps = u.jump_segments()
        for f in dataclasses.fields(JumpArrays):
            emit("jumps", label, f.name, digest(getattr(jumps, f.name)))
        part = u.partition
        for name in ("left", "right", "left_edge", "right_edge"):
            emit("interfaces", label, name, digest(getattr(part.interfaces, name)))
        emit("validate", label, exact(validate_partition(part).to_json()))
        rest = PolygonalPartition(part.cells[:-1], part.domain)
        emit("validate-rest", label, exact(validate_partition(rest).to_json()))
        ref = make_elementary(I_CE, J_CE, nu, OrientedSquare(nu, 6.0, (0, 0)), i_side=i_side)
        emit("compact", label, [compact_deviation(u, ref, m) for m in MARGINS])
        emit("measure", label, digest(symmetric_jump_measure(u)))
        emit("flipped", label, digest(u.flipped().jump_segments().normal))
        probes = [0.5 * (a + b) for a, b in zip(jumps.a, jumps.b)]
        probes += [c.centroid for c in u.partition.cells]
        emit("locate", label, [u.partition.locate(x) for x in probes])
        for style in ("default", "plain"):
            svg = render_svg(u, style=style).encode()
            emit("svg", label, style, hashlib.sha256(svg).hexdigest()[:20])
        for fid, f in densities:
            emit("energy", label, fid, quad(surface_energy(u, f)))
        if label.split("/")[1] == repr(ANGLES[0]):
            for g in fields:
                emit("flux", label, g.name, quad(jump_flux(u, g, tol=1e-12)))


def breakdowns() -> None:
    emit("ce1", exact(ce1_energy_breakdown()))
    emit("ce2", exact(ce2_energy_breakdown()))


def tiling() -> None:
    v = counterexample1_competitor(1.0).scaled(1.0 / 6.0)
    f = anisotropic_normal_density(0.01)
    for rep in tiling_report(v, I_CE, J_CE, E2, f, hs=range(1, 17), i_side="minus"):
        emit("tiling", exact(rep))
    R = frame_from_normal(E2)
    for h in range(1, 17):
        jumps = tile_construction(v, I_CE, J_CE, E2, h, i_side="minus").jump_segments()
        inv_h = 1.0 / h
        for include_boundary in (False, True):
            pieces = []
            for n in range(h):
                c = np.array([-0.5 + n * inv_h, 0.0])
                tile = np.array([c, c + [inv_h, 0], c + [inv_h, inv_h], c + [0, inv_h]]) @ R.T
                pieces.append(jump_pieces(jumps, Polygon(tile), include_boundary))
            level = JumpArrays.concatenate(pieces)
            for fld in dataclasses.fields(JumpArrays):
                emit("tile-pieces", h, include_boundary, fld.name,
                     digest(getattr(level, fld.name)))


def ibp() -> None:
    rng = np.random.default_rng(20202)
    dom = make_oriented_square(E2, 2.0)
    halves = ([(-1, -1), (1, -1), (1, 0), (-1, 0)], [(-1, 0), (1, 0), (1, 1), (-1, 1)])
    two = PolygonalPartition([Polygon(h) for h in halves], dom)
    one = PolygonalPartition([dom], dom)
    G = prototype_field(np.eye(2), (sin_profile(0.9, 3.0), sin_profile(0.7, 4.0)))
    bumps = [bump_from_polygon(dom, power=p) for p in (2, 3)]
    for k in range(6):
        part = one if k % 3 == 0 else two
        u = PiecewiseAffine(part, [
            AffinePiece(rng.normal(scale=0.6, size=(2, 2)), rng.normal(size=2)) for _ in part.cells
        ])
        for b, phi in enumerate(bumps):
            for vo, lo in ((8, 15), (16, 30)):
                r = integration_by_parts_residual(u, G, phi, tol=1e-9, volume_order=vo,
                                                  line_order=lo)
                emit("ibp", k, b, vo, repr(r))


def cli_reports(workdir: str) -> None:
    function = os.path.join(workdir, "ce1.json")
    with open(function, "w") as fh:
        json.dump(counterexample1_competitor(1.0).to_json(), fh)
    runs = [
        ["repro-ce1", "--budget", "600"],
        ["repro-ce2", "--budget", "600"],
        ["falsify", "--density", "isotropic:id", "--i", "0,0", "--j", "2,2",
         "--nu", "0.6,0.8", "--budget", "2000", "--seed", "3"],
        ["falsify", "--density", "dalmot:abs", "--i", "0,0", "--j", "2,2",
         "--nu", "0,1", "--budget", "100", "--seed", "1"],
        ["relax", "--density", "product:aniso1:eps=0.01", "--i", "0,0", "--j", "2,2",
         "--nu", "0,1", "--budget", "300", "--seed", "0"],
        ["energy-eval", "--function", function, "--density", "product:aniso1:eps=0.01"],
        ["ibp-check", "--cases", "3"],
        ["fields-verify", "--samples", "40"],
    ] + [["density-check", "--density", fid, "--samples", "300"] for fid in CATALOG_IDS]
    for n, argv in enumerate(runs):
        out = os.path.join(workdir, f"report-{n}.json")
        code = cli.main(argv + ["--out", out])
        with open(out) as fh:
            report = json.load(fh)
        report.pop("wall_time_s")
        # input files live in a fresh temporary directory each run
        emit("cli", code, exact(report).replace(workdir, "<workdir>"))


def certificates() -> None:
    for fid in ("isotropic:id", "frobenius"):
        f = catalog_density(fid)
        for i, j in SCALE_PROBES:
            try:
                status = falsify(f, i, j, E2, budget=100, seed=0, keep_competitor=False).status
            except EllipticityError:
                status = "EllipticityError"
            emit("certificate", fid, repr(i), repr(j), status)


def main() -> int:
    jump_sets()
    breakdowns()
    tiling()
    ibp()
    with tempfile.TemporaryDirectory() as workdir:
        cli_reports(workdir)
    certificates()
    return 0


if __name__ == "__main__":
    sys.exit(main())
