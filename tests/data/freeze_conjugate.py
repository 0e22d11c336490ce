"""Write the frozen `pqvar conjugate` outputs that tests/test_frozen_outputs.py compares against.

Run from the repository root, on the commit whose outputs are to be frozen:

    PYTHONPATH=src python tests/data/freeze_conjugate.py

For each case below it writes tests/data/conjugate/<case>.cfg and runs
`pqvar conjugate --config <case>.cfg --count 20 --out <case>.csv`.  The frozen
files are an oracle: they are regenerated when the conjugation is meant to
change, never to make the comparison pass.
"""

import os
import sys

from pqvar.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "conjugate")
COUNT = "20"

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

CASES = {"diagnose2d_vec": VEC2D}


def freeze():
    os.makedirs(HERE, exist_ok=True)
    for case, text in CASES.items():
        cfg = os.path.join(HERE, f"{case}.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        if main(["conjugate", "--config", cfg, "--count", COUNT,
                 "--out", os.path.join(HERE, f"{case}.csv")]) != 0:
            raise SystemExit(f"pqvar conjugate failed on {case}")


if __name__ == "__main__":
    sys.exit(freeze())
