"""Write the frozen `pqvar solve` outputs that tests/test_frozen_outputs.py compares against.

Run from the repository root, on the commit whose outputs are to be frozen:

    PYTHONPATH=src python tests/data/freeze_solve.py

For each case below it writes tests/data/solve/<case>.cfg and runs
`pqvar solve --config <case>.cfg --out <case>/`, which leaves reports.csv,
field.csv and gradients.csv in tests/data/solve/<case>/.  The frozen files are
an oracle: they are regenerated when the solver's output is meant to change,
never to make the comparison pass.
"""

import os
import sys

from pqvar.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "solve")

VEC2D = """\
n = 2
N = 2
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
cells = 12
boundary = sine
amplitudes = {amplitude}
"""

ANISO3D = """\
n = 3
N = 1
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4) + axis(i=3,q=4)
cells = 6
boundary = sine
amplitudes = 1
estimates = stress
"""

# case name -> config text: aniso2d_q4_vec at two amplitudes, aniso3d_q4 at one.
# `solve` measures nothing, but it checks that the grid resolves the regions of
# the configured estimates; at 6 cells the default sup estimate's B/8 holds no
# simplex barycenter, so the 3d case names one estimate whose region it resolves.
CASES = {
    "aniso2d_q4_vec_amp1": VEC2D.format(amplitude=1),
    "aniso2d_q4_vec_amp4": VEC2D.format(amplitude=4),
    "aniso3d_q4": ANISO3D,
}


def freeze():
    os.makedirs(HERE, exist_ok=True)
    for case, text in CASES.items():
        cfg = os.path.join(HERE, f"{case}.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        if main(["solve", "--config", cfg, "--out", os.path.join(HERE, case)]) != 0:
            raise SystemExit(f"pqvar solve failed on {case}")


if __name__ == "__main__":
    sys.exit(freeze())
