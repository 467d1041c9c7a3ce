"""Print the verdicts of 70 CLI runs, one a line, for a diff between checkouts.

    PYTHONPATH=<checkout>/src python tools/verdicts.py > <checkout>.txt
    diff parent.txt change.txt

The runs are `repro-ce1` and `repro-ce2` at their default budget 600 and
the oblique `falsify --density isotropic:id --i 0,0 --j 2,2 --nu 0.6,0.8
--budget 2000`, each at seeds 0-9, then `falsify --density dalmot:abs --i
0,0 --j 2,2 --nu 0,1 --budget 100` at seeds 0-39.  A line is the exit code,
then the whole report as JSON with sorted keys and without `wall_time_s`:
statuses, best families, parameters and energies, error estimates and the
rest.  Floats print through repr, so a single changed bit shows.

It calls `bdlab.cli.main` only, so it runs unchanged on checkouts that
differ in their internals.  A run takes a few seconds on one core.

Byte identity holds for one BLAS kernel.  OpenBLAS picks a kernel for the
host's CPU when it loads, and the BLAS products in bdlab (the frame turns
among them) round differently with and without FMA.  On a 2-core AVX-512
Xeon, against the default SkylakeX kernel, `OPENBLAS_CORETYPE=Prescott`
moves 30 lines (the error estimates of the repro and oblique `falsify`
reports, and the oblique competitors' domain vertices) and `Haswell` 20
(the error estimates of `repro-ce1` and the oblique `falsify`); no status
moves.  Compare both checkouts on one host, with `OPENBLAS_CORETYPE`
unset.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from bdlab import cli

FALSIFY = ["falsify", "--i", "0,0", "--j", "2,2"]
RUNS = [[command, "--seed", str(seed)]
        for command in ("repro-ce1", "repro-ce2") for seed in range(10)] + [
    FALSIFY + ["--density", "isotropic:id", "--nu", "0.6,0.8", "--budget", "2000",
               "--seed", str(seed)] for seed in range(10)] + [
    FALSIFY + ["--density", "dalmot:abs", "--nu", "0,1", "--budget", "100",
               "--seed", str(seed)] for seed in range(40)]


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "report.json")
        for argv in RUNS:
            code = cli.main(argv + ["--out", out])
            with open(out) as fh:
                report = json.load(fh)
            report.pop("wall_time_s")
            print(code, json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
