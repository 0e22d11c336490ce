"""`pqvar solve`, `check`, `conjugate` and `diagnose` against outputs frozen by
the scripts in tests/data.

For `solve`, every value of every output file lies
within 1e-10 of its frozen value, relative to the largest magnitude in its
column, and every integer matches exactly.  The one exception is
`residual_sup`: the sup norm of the final Euler-Lagrange residual is round-off
by construction, so it is held to the solver's stopping test instead.

For `check`, the certificate CSV is byte-identical
and the frozen standard output is printed byte for byte; a config with poly
atoms prints its polynomial rows after it, and nothing else.

`conjugate` and `diagnose` hold every number to 1e-10 of its own frozen value,
so a zero stays exactly zero, and every other cell exactly.  Their columns span
many decades (a `diagnose` ratio of 7.7e-11 shares a column with values up to
5.5), which a column-wide tolerance would not see.  The conjugation's `residual`
is round-off as `residual_sup` is, so it is held to the tolerance of
`duality.conjugate`, 1e-10 relative above |xi| = 1.

Every output, standard output included, must also match its sha256 in
tests/data/outputs.sha256 byte for byte.  The frozen values stay the oracle; a
digest shows a change of any size, such as round-off that the tolerances pass.

tests/data/freeze.py wrote every frozen file and the digests, from one table of
cases.
"""

import csv
import glob
import hashlib
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
TOL_RESIDUAL = 1e-9  # solver.TOL_RESIDUAL
CONJUGATE_DATA = os.path.join(HERE, "data", "conjugate")
DIAGNOSE_DATA = os.path.join(HERE, "data", "diagnose")
DIAGNOSE_CASES = sorted(os.path.basename(p)[:-4]
                        for p in glob.glob(os.path.join(DIAGNOSE_DATA, "*.cfg")))
CONJUGATE_TOL = 1e-10  # duality.DEFAULT_TOL
with open(os.path.join(HERE, "data", "outputs.sha256")) as _fh:
    DIGESTS = {path: digest for digest, path in map(str.split, _fh)}


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def assert_digest(path, data):
    """The output that tests/data/<path> names has the recorded sha256."""
    assert hashlib.sha256(data).hexdigest() == DIGESTS[path], f"{path} moved from its digest"


def test_cases_are_frozen():
    assert CASES == ["aniso2d_q4_vec_amp1", "aniso2d_q4_vec_amp4", "aniso3d_q4"]


def test_every_output_has_a_digest():
    want = ([f"solve/{case}/{name}" for case in CASES for name in OUTPUTS]
            + [f"check/{case}.{ext}" for case in CHECK_CASES for ext in ("csv", "stdout")]
            + ["conjugate/diagnose2d_vec.csv"]
            + [f"diagnose/{case}.csv" for case in DIAGNOSE_CASES])
    assert sorted(DIGESTS) == sorted(want)


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_frozen_outputs(case, tmp_path, capsys):
    assert main(["solve", "--config", os.path.join(DATA, f"{case}.cfg"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in OUTPUTS:
        assert_digest(f"solve/{case}/{name}", (tmp_path / name).read_bytes())
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
    assert_digest(f"check/{case}.stdout", printed.encode())
    assert_digest(f"check/{case}.csv", out.read_bytes())
    with open(os.path.join(CHECK_DATA, f"{case}.stdout")) as fh:
        frozen = fh.read()
    assert printed[:len(frozen)] == frozen
    extra = printed[len(frozen):].splitlines()
    assert all(line.startswith("poly") for line in extra)
    with open(cfg) as fh:
        assert bool(extra) == ("poly(" in fh.read())
    with open(os.path.join(CHECK_DATA, f"{case}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def _number(x):
    try:
        return float(x)
    except ValueError:
        return None


def assert_table_matches(want_path, got_path, held):
    """Every cell of the CSV at got_path matches want_path: a number to REL of
    its own frozen value, anything else exactly.  held maps a column name to a
    check of its row instead, called as held(value, row)."""
    header, want = read_csv(want_path)
    got_header, got = read_csv(got_path)
    assert got_header == header and len(got) == len(want)
    for k, col in enumerate(header):
        if col in held:
            for row in got:
                assert held[col](float(row[k]), dict(zip(header, row))), f"{col}: {row}"
            continue
        for x, y in zip((row[k] for row in want), (row[k] for row in got)):
            if _number(x) is None or x.lstrip("-").isdigit():
                assert y == x, col
            else:
                assert _number(y) is not None, col
                err = abs(_number(y) - _number(x))
                assert err <= REL * abs(_number(x)), f"{col}: {y} is {err:.3e} from {x}"


def _conjugate_residual_ok(res, row):
    xi = [float(v) for key, v in row.items() if key.startswith("xi")]
    return res <= CONJUGATE_TOL * max(1.0, float(np.linalg.norm(xi)))


def test_conjugate_matches_frozen_table(tmp_path):
    out = tmp_path / "conjugate.csv"
    assert main(["conjugate", "--config", os.path.join(CONJUGATE_DATA, "diagnose2d_vec.cfg"),
                 "--count", "20", "--out", str(out)]) == 0
    assert_digest("conjugate/diagnose2d_vec.csv", out.read_bytes())
    assert_table_matches(os.path.join(CONJUGATE_DATA, "diagnose2d_vec.csv"), out,
                         {"residual": _conjugate_residual_ok})


def test_diagnose_cases_are_frozen():
    assert DIAGNOSE_CASES == ["aniso2d_q4", "aniso2d_q4_cube", "aniso2d_q4_vec_fit", "aniso3d_q4"]


@pytest.mark.parametrize("case", DIAGNOSE_CASES)
def test_diagnose_matches_frozen_report(case, tmp_path, capsys):
    out = tmp_path / "diagnostics.csv"
    assert main(["diagnose", "--config", os.path.join(DIAGNOSE_DATA, f"{case}.cfg"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert_digest(f"diagnose/{case}.csv", out.read_bytes())
    want = os.path.join(DIAGNOSE_DATA, f"{case}.csv")
    assert_table_matches(want, out, {})
    # the exponent fits ran: each fitted estimate (hdes, sup_grad, and the four
    # rh_t=* of the cases that measure rh) has one at all 4 amplitudes
    _, rows = read_csv(want)
    fits = [row[4] for row in rows if row[0] in ("hdes", "sup_grad") or row[0].startswith("rh_t=")]
    fitted = 6 if case in ("aniso2d_q4_cube", "aniso2d_q4_vec_fit") else 2
    assert len(fits) == 4 * fitted and all(fits)
