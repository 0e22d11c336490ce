"""Write the frozen `pqvar check` outputs that tests/test_frozen_outputs.py compares against.

Run from the repository root, on the commit whose outputs are to be frozen:

    PYTHONPATH=src python tests/data/freeze_check.py

For each case below it writes tests/data/check/<case>.cfg (and the polynomial
files it names) and runs `pqvar check --config <case>.cfg --samples 2000
--out <case>.csv`, keeping its standard output in <case>.stdout.  The frozen
files are an oracle: they are regenerated when the certificate is meant to
change, never to make the comparison pass.
"""

import contextlib
import io
import os
import sys

from pqvar.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check")
SAMPLES = "2000"

# the diagnose2d_vec config of perfbench/run.py
VEC2D = """\
n = 2
N = 2
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
cells = 48
boundary = sine
amplitudes = 0.5,1,2,4
estimates = hd,sup,rh,stress,decay
"""

POLY2D = """\
n = 2
N = 1
p = 2
q = 4
mu = 0
L = 16
integrand = poly(aniso_quartic.poly)
"""

# |z|^2 + (z_1^2 + 4 z_2^2)^2, one monomial per line
ANISO_QUARTIC = """\
1 1 1
1 2 2
1 1 1 1 1
8 1 1 2 2
16 2 2 2 2
"""

CASES = {"diagnose2d_vec": VEC2D, "poly_aniso_quartic": POLY2D}
FILES = {"aniso_quartic.poly": ANISO_QUARTIC}


def write(name, text):
    with open(os.path.join(HERE, name), "w") as fh:
        fh.write(text)


def freeze():
    os.makedirs(HERE, exist_ok=True)
    for name, text in FILES.items():
        write(name, text)
    for case, text in CASES.items():
        write(f"{case}.cfg", text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "--config", os.path.join(HERE, f"{case}.cfg"),
                         "--samples", SAMPLES, "--out", os.path.join(HERE, f"{case}.csv")])
        if code != 0:
            raise SystemExit(f"pqvar check exited {code} on {case}:\n{out.getvalue()}")
        write(f"{case}.stdout", out.getvalue())


if __name__ == "__main__":
    sys.exit(freeze())
