"""`pqvar solve` against outputs frozen by tests/data/freeze_solve.py.

Every value of every output file lies within 1e-10 of its frozen value,
relative to the largest magnitude in its column, and every integer matches
exactly.  The one exception is `residual_sup`: the sup norm of the final
Euler-Lagrange residual is round-off by construction, so it is held to the
solver's stopping test instead.
"""

import csv
import glob
import os

import numpy as np
import pytest

from pqvar.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "solve")
CASES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(DATA, "*.cfg")))
OUTPUTS = ("reports.csv", "field.csv", "gradients.csv")
REL = 1e-10
TOL_RESIDUAL = 1e-9  # minimize_dirichlet's default tol_residual


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_cases_are_frozen():
    assert CASES == ["aniso2d_q4_vec_amp1", "aniso2d_q4_vec_amp4", "aniso3d_q4"]


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_frozen_outputs(case, tmp_path, capsys):
    assert main(["solve", "--config", os.path.join(DATA, f"{case}.cfg"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in OUTPUTS:
        header, want = read_csv(os.path.join(DATA, case, name))
        got_header, got = read_csv(os.path.join(tmp_path, name))
        assert got_header == header and len(got) == len(want), name
        for k, col in enumerate(header):
            w = [row[k] for row in want]
            g = [row[k] for row in got]
            if all(x.lstrip("-").isdigit() for x in w):
                assert g == w, f"{name}:{col}"
                continue
            w, g = np.array(w, dtype=float), np.array(g, dtype=float)
            if col == "residual_sup":
                assert np.all(g <= TOL_RESIDUAL), f"{name}:{col}"
                continue
            err = np.abs(g - w).max()
            assert err <= REL * np.abs(w).max(), f"{name}:{col} moved by {err:.3e}"
