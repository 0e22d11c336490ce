"""Write the frozen outputs that tests/test_frozen_outputs.py compares against.

Run from the repository root, on the commit whose outputs are to be frozen:

    PYTHONPATH=src python tests/data/freeze.py [command ...]

Each row of CASES is one pqvar command on one config.  The script writes the
config to tests/data/<command>/<case>.cfg, with any file the config names, and
runs `pqvar <command> --config <case>.cfg <flags> --out <out>`.  `solve`
writes reports.csv, field.csv and gradients.csv into <case>/; the other
commands write <case>.csv, and `check` also keeps its standard output in
<case>.stdout.  Given command names, it writes only their cases.

    PYTHONPATH=src python tests/data/freeze.py --digests

runs every case in a temporary directory instead, leaves the frozen files as
they are, and writes the sha256 of each output, by its path under tests/data,
to tests/data/outputs.sha256.

The frozen files are an oracle: they are regenerated when a command's output
is meant to change, never to make the comparison pass.  The digests hold the
same outputs byte for byte; a change that moves an output by round-off
rewrites them and states the largest difference.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from pqvar.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "outputs.sha256")

# aniso2d_q4_vec; at 48 cells with four amplitudes and ESTIMATES it is the
# diagnose2d_vec config of perfbench/run.py
VEC2D = """\
n = 2
N = 2
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
cells = {cells}
boundary = sine
amplitudes = {amplitudes}
"""
ESTIMATES = "estimates = hd,sup,rh,stress,decay\n"
DIAGNOSE2D_VEC = VEC2D.format(cells=48, amplitudes="0.5,1,2,4") + ESTIMATES

# aniso2d_q4, the scalar model: cacc measures scalar fields only
SCALAR2D = """\
n = 2
N = 1
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
cells = {cells}
boundary = sine
amplitudes = {amplitudes}
"""
# the estimates of the scheme3d config of perfbench/run.py; rh is 2d only
CACC_ESTIMATES = "estimates = hd,sup,cacc,stress,decay\n"

# aniso3d_q4; at 20 cells with amplitude 1 and CACC_ESTIMATES it is the
# scheme3d config of perfbench/run.py
ANISO3D = """\
n = 3
N = 1
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4) + axis(i=3,q=4)
cells = {cells}
boundary = sine
amplitudes = {amplitudes}
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

# (command, case, config text, flags, {file name: text} the config reads)
CASES = [
    ("solve", "aniso2d_q4_vec_amp1", VEC2D.format(cells=12, amplitudes=1), (), {}),
    ("solve", "aniso2d_q4_vec_amp4", VEC2D.format(cells=12, amplitudes=4), (), {}),
    # `solve` measures nothing, but it checks that the grid resolves the regions
    # of the configured estimates; at 6 cells the default sup estimate's B/8
    # holds no simplex barycenter, so this case names one whose region it resolves
    ("solve", "aniso3d_q4", ANISO3D.format(cells=6, amplitudes=1) + "estimates = stress\n",
     (), {}),
    ("check", "diagnose2d_vec", DIAGNOSE2D_VEC, ("--samples", "2000"), {}),
    ("check", "poly_aniso_quartic", POLY2D, ("--samples", "2000"),
     {"aniso_quartic.poly": ANISO_QUARTIC}),
    ("conjugate", "diagnose2d_vec", DIAGNOSE2D_VEC, ("--count", "20"), {}),
    # four amplitudes give the exponent fits of hdes, sup_grad and rh_t=* their
    # four points; 9 cells (odd, so a cell center sits at the region's center)
    # resolve every region of the five estimates
    ("diagnose", "aniso2d_q4_vec_fit", VEC2D.format(cells=9, amplitudes="0.5,1,2,4")
     + ESTIMATES, (), {}),
    # the same sweep on the scalar models, with the Caccioppoli estimate
    ("diagnose", "aniso2d_q4", SCALAR2D.format(cells=9, amplitudes="0.5,1,2,4")
     + CACC_ESTIMATES, (), {}),
    ("diagnose", "aniso3d_q4", ANISO3D.format(cells=9, amplitudes="0.5,1,2,4")
     + CACC_ESTIMATES, (), {}),
    # an off-center cube B: the decay balls then take their own ball gauge of the
    # cell centers, and the Caccioppoli ramp reads the sup-norm distance
    ("diagnose", "aniso2d_q4_cube", SCALAR2D.format(cells=12, amplitudes="0.5,1,2,4")
     + "estimates = hd,sup,rh,cacc,stress,decay\nregion = 0.45,0.55,0.4,cube\n", (), {}),
]


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def outputs(command, case):
    """The output files of one case, by their paths under its command's directory."""
    if command == "solve":
        return [f"{case}/{name}" for name in ("reports.csv", "field.csv", "gradients.csv")]
    return [f"{case}.csv"] + ([f"{case}.stdout"] if command == "check" else [])


def run(root, command, case, text, flags, files):
    """Write one case's config, with the files it reads, into root/<command>/
    and run it there; its outputs land beside the config."""
    here = os.path.join(root, command)
    os.makedirs(here, exist_ok=True)
    for name, body in files.items():
        write(os.path.join(here, name), body)
    cfg = os.path.join(here, f"{case}.cfg")
    write(cfg, text)
    out = os.path.join(here, case if command == "solve" else f"{case}.csv")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main([command, "--config", cfg, *flags, "--out", out])
    if code != 0:
        raise SystemExit(f"pqvar {command} exited {code} on {case}:\n{printed.getvalue()}")
    if command == "check":
        write(os.path.join(here, f"{case}.stdout"), printed.getvalue())


def freeze(commands):
    unknown = set(commands) - {row[0] for row in CASES}
    if unknown:
        raise SystemExit(f"no cases for {', '.join(sorted(unknown))}")
    for row in CASES:
        if not commands or row[0] in commands:
            run(HERE, *row)


def digests():
    lines = []
    with tempfile.TemporaryDirectory() as root:
        for row in CASES:
            run(root, *row)
            for name in outputs(*row[:2]):
                with open(os.path.join(root, row[0], name), "rb") as fh:
                    lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {row[0]}/{name}\n")
    write(DIGESTS, "".join(lines))


if __name__ == "__main__":
    sys.exit(digests() if sys.argv[1:] == ["--digests"] else freeze(sys.argv[1:]))
