"""Write the frozen `pqvar diagnose` outputs that tests/test_frozen_outputs.py compares against.

Run from the repository root, on the commit whose outputs are to be frozen:

    PYTHONPATH=src python tests/data/freeze_diagnose.py

For each case below it writes tests/data/diagnose/<case>.cfg and runs
`pqvar diagnose --config <case>.cfg --out <case>.csv`.  The frozen files are an
oracle: they are regenerated when the solver or the measurements are meant to
change, never to make the comparison pass.
"""

import contextlib
import io
import os
import sys

from pqvar.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "diagnose")

# aniso2d_q4_vec on a coarse grid.  Four amplitudes give the exponent fits of
# hdes, sup_grad and rh_t=* their four points; 9 cells (odd, so a cell center
# sits at the region's center) resolve every region of the five estimates.
VEC2D = """\
n = 2
N = 2
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
cells = 9
boundary = sine
amplitudes = 0.5,1,2,4
estimates = hd,sup,rh,stress,decay
"""

CASES = {"aniso2d_q4_vec_fit": VEC2D}


def freeze():
    os.makedirs(HERE, exist_ok=True)
    for case, text in CASES.items():
        cfg = os.path.join(HERE, f"{case}.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["diagnose", "--config", cfg, "--out", os.path.join(HERE, f"{case}.csv")])
        if code != 0:
            raise SystemExit(f"pqvar diagnose exited {code} on {case}:\n{out.getvalue()}")


if __name__ == "__main__":
    sys.exit(freeze())
