"""`pqvar solve` and `pqvar check` against outputs frozen by the scripts in tests/data.

For `solve` (tests/data/freeze_solve.py), every value of every output file lies
within 1e-10 of its frozen value, relative to the largest magnitude in its
column, and every integer matches exactly.  The one exception is
`residual_sup`: the sup norm of the final Euler-Lagrange residual is round-off
by construction, so it is held to the solver's stopping test instead.

For `check` (tests/data/freeze_check.py), the certificate CSV is byte-identical
and the frozen standard output is printed byte for byte; a config with poly
atoms prints its polynomial rows after it, and nothing else.
"""

import csv
import glob
import os

import numpy as np
import pytest

from pqvar.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "solve")
CASES = sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(DATA, "*.cfg")))
CHECK_DATA = os.path.join(HERE, "data", "check")
CHECK_CASES = sorted(os.path.basename(p)[:-4]
                     for p in glob.glob(os.path.join(CHECK_DATA, "*.cfg")))
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


def test_check_cases_are_frozen():
    assert CHECK_CASES == ["diagnose2d_vec", "poly_aniso_quartic"]


@pytest.mark.parametrize("case", CHECK_CASES)
def test_check_prints_frozen_rows(case, tmp_path, capsys):
    cfg = os.path.join(CHECK_DATA, f"{case}.cfg")
    out = tmp_path / "cert.csv"
    assert main(["check", "--config", cfg, "--samples", "2000", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    with open(os.path.join(CHECK_DATA, f"{case}.stdout")) as fh:
        frozen = fh.read()
    assert printed[:len(frozen)] == frozen
    extra = printed[len(frozen):].splitlines()
    assert all(line.startswith("poly") for line in extra)
    with open(cfg) as fh:
        assert bool(extra) == ("poly(" in fh.read())
    with open(os.path.join(CHECK_DATA, f"{case}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()
