"""Configuration-driven experiment runner.

Subcommands: check, conjugate, solve, diagnose, sweep (config-driven, CSV out)
and gehring, moser (pure arithmetic, flags only).  Exit codes: 0 success,
1 certification/diagnostic failure, 2 config or flag error, 3 solver non-convergence.

Config files are plain text `key = value` lines; `#` starts a comment.  The
integrand mini-language:

    expr := term ('+' term)*
    term := [coeff '*'] atom
    atom := 'power(mu=<r>,p=<r>)' | 'axis(i=<int>,q=<r>)' | 'poly(<file>)'

Whitespace is insignificant.  Each key of an atom appears once, as a number:
mu in [0, 1], p >= 2, q >= 2, i an integer in 1..n, coeff >= 0.  A poly file
holds one monomial per line: a coefficient followed by 1-based flat indices
into z (row-major over (N, n)); `1.0 1 1 2 2` is the monomial z_1^2 z_2^2.
Like terms are combined, any degree is accepted, and coefficients must be finite.

These config errors exit 2 before any solve: malformed lines, unknown keys, bad
numbers, an integrand term out of range or syntax (by line and column), a poly
file with a non-finite coefficient, an empty amplitudes list or a non-finite
amplitude, a region with a non-finite center or radius, sobolev_exp <= 2q/p, rh
with n != 2 or a t_grid entry outside (1, 2), cacc with N != 1, and a
measurement region that the grid does not resolve (no simplex barycenter or
cell center inside).  So does a non-finite amplitude among the values of
`sweep --vary amplitude`.  A q-sweep checks sobolev_exp at each q; a point it
does not suit carries the error in its row.

Recognized keys (defaults in parentheses): n (2), N (1), p, q, mu (0), L,
integrand, cells (32), epsilons (0.5,0.25,0.125,0.0625) or schedule_count,
boundary (sine), amplitudes (1.0), estimates (hd,sup), region
(0.5,...,0.45,ball), t_grid (1.1,1.25,1.5,1.75), sobolev_exp (4q/p, following
q in a sweep), seed (0), workers (1).
"""

import argparse
import concurrent.futures
import logging
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics, duality, growth, solver
from .integrands import (AxisPower, EvenPolynomial, HomogeneousForm, Integrand,
                         PowerNorm, Scaled, Sum)
from .model import (DiagnosticsEntry, DiagnosticsReport, Grid, InvalidRegimeError, Region,
                    RegionError, Regime, validate_regime)
from .solver import Schedule, _fmt, write_csv


class ConfigError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


# ------------------------------------------------------------ mini-language

_NUM = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
# one whole term, [coeff '*'] name '(' args ')', with the blanks around it
_TERM = re.compile(rf"\s*(?P<term>(?:(?P<coeff>{_NUM})\s*\*\s*)?"
                   rf"(?P<name>\w+)\s*\((?P<args>[^()]*)\))\s*")


def load_polynomial(path, shape, line=None, col=None) -> EvenPolynomial:
    N, n = shape
    try:
        with open(path) as fh:
            rows = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read polynomial file {path!r}: {exc}", line=line, col=col)
    by_degree = {}
    for k, row in enumerate(rows, start=1):
        row = row.split("#", 1)[0].strip()
        if not row:
            continue
        parts = row.split()
        try:
            coeff = float(parts[0])
            idx = tuple(int(tok) for tok in parts[1:])
        except ValueError:
            raise ConfigError(f"bad monomial line {k} in {path!r}: {row!r}", line=line)
        by_degree.setdefault(len(idx), []).append((coeff, idx))
    if not by_degree:
        raise ConfigError(f"polynomial file {path!r} holds no monomials", line=line)
    try:
        comps = [HomogeneousForm.from_terms(N, n, deg, terms)
                 for deg, terms in sorted(by_degree.items())]
        poly = EvenPolynomial(comps)
        growth.homogeneous_decomposition(poly)  # rejects odd-degree content early
    except ValueError as exc:  # covers NotEvenError and bad monomial indices
        raise ConfigError(f"invalid polynomial {path!r}: {exc}", line=line, col=col)
    return poly


# atom name -> (constructor, {key: conversion}); poly takes a file path instead
_ATOMS = {"power": (PowerNorm, {"mu": float, "p": float}),
          "axis": (AxisPower, {"i": int, "q": float}),
          "poly": (load_polynomial, None)}


def _atom_kwargs(name, spec, args, line_no, col):
    """The `key=<number>` pairs of one atom, each key of `spec` exactly once."""
    usage = f"{name}(...) takes {', '.join(k + '=<number>' for k in spec)}, each once"
    kw = {}
    start = col
    for part in args.split(","):
        key, _, val = (tok.strip() for tok in part.partition("="))
        at = col + len(part) - len(part.lstrip())
        if key not in spec or key in kw or re.fullmatch(_NUM, val) is None:
            raise ConfigError(f"{usage}; got {part.strip()!r}", line=line_no, col=at)
        if spec[key] is int and not float(val).is_integer():
            raise ConfigError(f"{name}(...) needs an integer {key}, got {val}",
                              line=line_no, col=at)
        kw[key] = spec[key](float(val))
        col += len(part) + 1
    if len(kw) < len(spec):
        raise ConfigError(f"{usage}; got {args.strip()!r}", line=line_no, col=start)
    return kw


def _term(m, shape, base_dir, line_no) -> Integrand:
    """The integrand of one matched term; errors name the term's column."""
    name, args, col = m.group("name"), m.group("args").strip(), m.start("term") + 1
    if name not in _ATOMS:
        raise ConfigError(f"unknown atom {name!r} (expected {', '.join(_ATOMS)})",
                          line=line_no, col=col)
    make, spec = _ATOMS[name]
    if spec is None:
        if not args:
            raise ConfigError("poly(...) needs a file path", line=line_no, col=col)
        atom = make(os.path.join(base_dir, args), shape, line=line_no, col=col)
    else:
        kw = _atom_kwargs(name, spec, m.group("args"), line_no, m.start("args") + 1)
        if name == "axis" and kw["i"] > shape[1]:
            raise ConfigError(f"axis index i={kw['i']} out of range 1..{shape[1]}",
                              line=line_no, col=col)
    coeff = m.group("coeff")
    try:
        atom = atom if spec is None else make(**kw)
        return atom if coeff is None else Scaled(float(coeff), atom)
    except ValueError as exc:  # the constructors' own range checks
        raise ConfigError(str(exc), line=line_no, col=col) from None


def parse_integrand(text, shape, base_dir=".", line_no=None, col=1) -> Integrand:
    """Parse `term ('+' term)*`, one whole term at a time.  `text` starts at
    column `col` of its line, and errors give columns within that line."""
    text = " " * (col - 1) + text  # match positions are now line columns
    terms, pos = [], 0
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            raise ConfigError(f"expected [coeff *] name(args), found {text[pos:pos+10]!r}",
                              line=line_no, col=pos + 1)
        terms.append(_term(m, shape, base_dir, line_no))
        pos = m.end()
        if pos == len(text):
            return terms[0] if len(terms) == 1 else Sum(terms)
        if text[pos] != "+" or not text[pos + 1:].strip():
            raise ConfigError(f"unexpected {text[pos:pos+10]!r} after a term",
                              line=line_no, col=pos + 1)
        pos += 1


# ------------------------------------------------------------ config files


@dataclass
class ExperimentConfig:
    regime: Regime
    integrand: Integrand
    cells: int
    epsilons: list
    boundary: str
    amplitudes: list
    estimates: list
    region: Region
    t_grid: list
    sobolev_key: float | None  # the sobolev_exp value; None follows the regime's default
    seed: int
    workers: int = 1

    def schedule(self) -> Schedule:
        return Schedule(epsilons=list(self.epsilons))

    @property
    def sobolev_exp(self) -> float:
        """The configured value, else the default 4q/p at the current regime."""
        if self.sobolev_key is None:
            return diagnostics.default_sobolev_exponent(self.regime)
        return self.sobolev_key


_KNOWN_KEYS = {"n", "N", "p", "q", "mu", "L", "integrand", "cells", "epsilons",
               "schedule_count", "boundary", "amplitudes", "estimates", "region",
               "t_grid", "sobolev_exp", "seed", "workers"}


def _floats(key, text, line=None):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad number list for {key!r}: {text!r}", line=line) from None


def _check_amplitudes(key, values, line=None):
    """Raise ConfigError unless every amplitude is finite."""
    for a in values:
        if not math.isfinite(a):
            raise ConfigError(f"{key} must be finite, got {a}", line=line)


def parse_config(text, base_dir=".") -> ExperimentConfig:
    """Deterministic parse of the key = value experiment format."""
    raw = {}
    lines = {}
    value_col = {}
    for no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            raise ConfigError(f"expected key = value, got {body.strip()!r}", line=no)
        key, _, val = body.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=no)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=no)
        raw[key] = val.strip()
        lines[key] = no
        value_col[key] = len(body) - len(val.lstrip()) + 1

    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
        return raw[key]

    def number(key, default=None, conv=float):
        if key not in raw:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            val = float(raw[key])
        except ValueError:
            raise ConfigError(f"bad number for {key!r}: {raw[key]!r}", line=lines[key])
        if conv is int and not val.is_integer():
            raise ConfigError(f"{key!r} must be an integer, got {raw[key]!r}", line=lines[key])
        return conv(val)

    n = number("n", 2, int)
    N = number("N", 1, int)
    p = number("p")
    q = number("q")
    mu = number("mu", 0.0)
    L = number("L")
    try:
        regime = Regime(n=n, N=N, p=p, q=q, mu=mu, L=L)
    except InvalidRegimeError as exc:
        raise ConfigError(str(exc))

    integrand = parse_integrand(need("integrand"), (N, n), base_dir=base_dir,
                                line_no=lines.get("integrand"),
                                col=value_col.get("integrand", 1))

    def floats(key, default):
        return _floats(key, raw.get(key, default), line=lines.get(key))

    cells = number("cells", 32, int)
    if cells < 2:
        raise ConfigError(f"cells must be at least 2, got {cells}", line=lines["cells"])
    eps_key = "epsilons" if "epsilons" in raw else "schedule_count"
    eps = floats(eps_key, "") if eps_key == "epsilons" else number(eps_key, 4, int)
    try:
        schedule = Schedule(eps) if eps_key == "epsilons" else Schedule.dyadic(eps)
    except ValueError as exc:
        raise ConfigError(str(exc), line=lines.get(eps_key))
    boundary = raw.get("boundary", "sine")
    if boundary not in solver.BOUNDARY_FAMILIES:
        raise ConfigError(f"unknown boundary {boundary!r} (choose from "
                          f"{', '.join(solver.BOUNDARY_FAMILIES)})", line=lines["boundary"])
    amplitudes = floats("amplitudes", "1.0")
    if not amplitudes:
        raise ConfigError("amplitudes needs at least one value", line=lines["amplitudes"])
    _check_amplitudes("amplitudes", amplitudes, line=lines.get("amplitudes"))
    estimates = [tok.strip() for tok in raw.get("estimates", "hd,sup").split(",") if tok.strip()]
    known_estimates = {"hd", "sup", "rh", "cacc", "stress", "decay"}
    for est in estimates:
        if est not in known_estimates:
            raise ConfigError(f"unknown estimate {est!r} (choose from {sorted(known_estimates)})",
                              line=lines.get("estimates"))
    if "region" in raw:
        parts = [tok.strip() for tok in raw["region"].split(",")]
        if len(parts) != n + 2:
            raise ConfigError(f"region needs {n} center coordinates, radius, kind",
                              line=lines["region"])
        try:
            center = tuple(float(tok) for tok in parts[:n])
            region = Region(center, float(parts[n]), parts[n + 1])
        except ValueError as exc:
            raise ConfigError(f"bad region: {exc}", line=lines["region"])
    else:
        region = Region((0.5,) * n, 0.45, "ball")
    t_grid = floats("t_grid", "1.1,1.25,1.5,1.75")
    sobolev = number("sobolev_exp") if "sobolev_exp" in raw else None
    # the measurements' own preconditions, checked before any solve
    if sobolev is not None:
        try:
            diagnostics.hd_exponents(regime, sobolev)
        except diagnostics.InadmissibleSobolevExponent as exc:
            raise ConfigError(str(exc), line=lines["sobolev_exp"])
    try:
        if "rh" in estimates:
            diagnostics.check_reverse_holder(n, t_grid)
        if "cacc" in estimates:
            diagnostics.check_caccioppoli(N)
    except ValueError as exc:
        raise ConfigError(f"estimates: {exc}", line=lines.get("estimates"))
    seed = number("seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}", line=lines["seed"])
    workers = number("workers", 1, int)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}", line=lines["workers"])
    return ExperimentConfig(regime=regime, integrand=integrand, cells=cells,
                            epsilons=schedule.epsilons, boundary=boundary,
                            amplitudes=amplitudes, estimates=estimates, region=region,
                            t_grid=t_grid, sobolev_key=sobolev, seed=seed, workers=workers)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


# ------------------------------------------------------------ CSV rows


def _diag_rows(report: DiagnosticsReport):
    for e in report.entries:
        yield (e.estimate_id, e.lhs, e.rhs, e.ratio, e.fitted_exponent,
               e.grid, e.amplitude, e.epsilon)


DIAG_HEADER = ["estimate_id", "lhs", "rhs", "ratio", "fitted_exponent",
               "grid", "amplitude", "epsilon"]


# ------------------------------------------------------------ measurement core


DECAY_FRACTIONS = (0.45, 0.35, 0.25, 0.18)  # the decay profile radii over B's radius
CACC_FRACTIONS = (0.4, 0.8)  # the Caccioppoli cutoff's inner and outer radii over B's


def check_regions(cfg: ExperimentConfig, grid: Grid):
    """Raise RegionError unless `grid` resolves every region the selected
    estimates measure on, as their measurements read them: simplex barycenters
    in B, in B/8 (sup) and in the outer cutoff region (cacc); cell centers in B/2
    (hd), in B/8 (rh) and in the decay balls; and B/2 inside the unit box (hd)."""
    B, est = cfg.region, set(cfg.estimates)
    simplex_regions = [B] if est & {"hd", "sup", "rh", "stress"} else []
    cell_regions = []
    if "hd" in est:
        diagnostics.check_higher_diff_region(B)
        cell_regions.append(B.scaled(0.5))
    if "sup" in est:
        simplex_regions.append(B.scaled(1.0 / 8.0))
    if "rh" in est:
        cell_regions.append(B.scaled(1.0 / 8.0))
    if "cacc" in est:
        simplex_regions.append(B.scaled(CACC_FRACTIONS[1]))
    if "decay" in est:
        cell_regions += [Region(B.center, B.radius * f, "ball") for f in DECAY_FRACTIONS]
    for region in simplex_regions:
        diagnostics.region_mask(grid, region)
    for region in cell_regions:
        diagnostics.region_mask(grid, region, by_cell=True)


def _solve_grid(cfg: ExperimentConfig) -> Grid:
    """The grid of the config's solves, once it resolves the measurement regions."""
    if cfg.regime.n not in (2, 3):
        raise ConfigError(f"solves need n = 2 or 3, got n = {cfg.regime.n}")
    grid = Grid(cfg.regime.n, cfg.cells)
    check_regions(cfg, grid)
    return grid


def _solve_once(cfg: ExperimentConfig, amplitude: float, grid: Grid):
    """The scheme run at one amplitude on `grid`, a `_solve_grid` of the config."""
    g = solver.boundary_family(cfg.boundary, grid, amplitude, cfg.regime.N, seed=cfg.seed)
    return solver.run_scheme(cfg.integrand, cfg.regime, grid, g, cfg.schedule())


def measure_estimates(cfg: ExperimentConfig, amplitude: float, scheme_result) -> DiagnosticsReport:
    """Measure the selected estimates on the final field of one scheme run."""
    fld = scheme_result.field
    r = cfg.regime
    F = cfg.integrand
    B = cfg.region
    chain = diagnostics.hd_exponents(r, cfg.sobolev_exp)
    entries = []
    if "hd" in cfg.estimates:
        entries.append(diagnostics.higher_diff_measure(fld, F, r, chain, B))
    if "sup" in cfg.estimates:
        entries.append(diagnostics.sup_grad_measure(fld, F, B, b=chain.b))
    if "rh" in cfg.estimates:
        base = diagnostics.region_energy_average(fld, F, B) + 1.0
        for t, lhs, _ in diagnostics.reverse_holder_scan(fld, F, r, cfg.t_grid, B, b=chain.b):
            entries.append(DiagnosticsEntry(f"rh_t={t:g}", lhs=lhs, rhs=base ** chain.b))
    if "cacc" in cfg.estimates:
        cut = tuple(B.scaled(f) for f in CACC_FRACTIONS)
        for alpha in (-1.0, 0.0, 2.0):
            cc = diagnostics.caccioppoli_check(fld, F, r, alpha, cut)
            entries.append(DiagnosticsEntry(f"cacc_a={alpha:g}", lhs=cc.lhs, rhs=cc.rhs))
    if "stress" in cfg.estimates:
        ratio = diagnostics.stress_integrability(fld, F, r, B)
        entries.append(DiagnosticsEntry("stress", lhs=ratio, rhs=1.0))
    if "decay" in cfg.estimates:
        radii = [B.radius * f for f in DECAY_FRACTIONS]
        ld = diagnostics.log_decay_profile(fld, F, r, radii, B)
        for s, mass in zip(ld.radii, ld.masses):
            pred = ld.amplitude * math.log(B.radius / s) ** (-ld.decay_exponent)
            entries.append(DiagnosticsEntry(f"decay_r={s:g}", lhs=mass, rhs=max(pred, 0.0)))
    rep = DiagnosticsReport()
    eps = scheme_result.reports[-1].epsilon
    for e in entries:
        e.grid, e.amplitude, e.epsilon = fld.grid.cells_per_side, amplitude, eps
        rep.add(e)
    return rep


def run_diagnose(cfg: ExperimentConfig) -> DiagnosticsReport:
    """Solve per amplitude, measure, and fit exponents across the sweep.

    Fitted exponents regress log lhs on log(avg_B F + 1) for the estimates whose
    right-hand side is a power of that base; other estimates keep None, and so
    does one that `fit_exponent` cannot fit, after a warning on the `pqvar`
    logger that gives its id and the reason."""
    report = DiagnosticsReport()
    grid = _solve_grid(cfg)  # one grid, with its assembly plan, for every amplitude
    for amp in cfg.amplitudes:
        res = _solve_once(cfg, amp, grid)
        report.extend(measure_estimates(cfg, amp, res))
    chain = diagnostics.hd_exponents(cfg.regime, cfg.sobolev_exp)
    for est in dict.fromkeys(e.estimate_id for e in report.entries):
        if not (est in ("hdes", "sup_grad") or est.startswith("rh_t=")):
            continue
        entries = report.by_id(est)
        if len(entries) >= 4:
            bases = [e.rhs ** (1.0 / chain.b) for e in entries]
            lhss = [e.lhs for e in entries]
            try:
                b, _ = diagnostics.fit_exponent(bases, lhss)
            except ValueError as exc:
                logging.getLogger("pqvar").warning("estimate %s: no exponent fitted (%s)",
                                                   est, exc)
                continue
            for e in entries:
                e.fitted_exponent = b
    return report


# ------------------------------------------------------------ subcommands


def _polynomials(F: Integrand):
    """The polynomials of the poly(...) atoms of a parsed integrand, in config
    order, without their coefficients."""
    if isinstance(F, EvenPolynomial):
        return [F]
    if isinstance(F, Scaled):
        return _polynomials(F.inner)
    if isinstance(F, Sum):
        return [P for part in F.parts for P in _polynomials(part)]
    return []


def _poly_rows(P: EvenPolynomial, k: int, samples: int, radius: float, seed: int):
    """The rows of the k-th polynomial: q, p_max and the stress constant, then
    the alignment defect of each nonzero component of degree >= 2.  Raises
    ValueError for a component negative on the sphere or a degenerate form."""
    out = growth.polynomial_growth_exponents(P, n_samples=samples, radius=radius, seed=seed)
    rows = [("q", out.q), ("p_max", out.p_max), ("stress_constant", out.constant)]
    rows += [(f"delta_deg{c.degree}", growth.delta_of_homogeneous(c, c.degree, seed=seed))
             for c in P.components if c.degree >= 2 and c.monomials]
    return [(f"poly{k}_{key}", v) for key, v in rows]


def cmd_check(args):
    cfg = load_config(args.config)
    try:
        cert = growth.check_legendre(cfg.integrand, cfg.regime,
                                     n_samples=args.samples, radius=args.radius,
                                     seed=cfg.seed)
    except (growth.EllipticityViolationError, InvalidRegimeError) as exc:
        print(f"certification FAILED: {exc}")
        return 1
    rows = [("assf3_constant", cert.constant_assf3),
            ("assf1_constant", cert.constant_assf1),
            ("samples", cert.samples),
            ("registered_L", cfg.regime.L)]
    if args.out:
        write_csv(args.out, ["quantity", "value"], rows)
    for k, v in rows:
        print(f"{k},{_fmt(v)}")
    passed = (math.isfinite(cert.constant_assf3) and math.isfinite(cert.constant_assf1)
              and cert.constant_assf3 <= cfg.regime.L)
    print(f"certified constants within registered L: {passed}")
    for k, P in enumerate(_polynomials(cfg.integrand), start=1):
        try:
            poly_rows = _poly_rows(P, k, args.samples, args.radius, cfg.seed)
        except ValueError as exc:
            print(f"certification FAILED: poly {k}: {exc}")
            return 1
        for key, v in poly_rows:
            print(f"{key},{_fmt(v)}")
    return 0 if passed else 1


def cmd_conjugate(args):
    cfg = load_config(args.config)
    rng = np.random.default_rng(cfg.seed)
    N, n = cfg.regime.N, cfg.regime.n
    rows = []
    for _ in range(args.count):
        xi = rng.normal(size=(N, n))
        xi *= args.radius * rng.uniform(0.05, 1.0) / max(np.linalg.norm(xi), 1e-12)
        try:
            res = duality.conjugate(cfg.integrand, xi)
        except duality.NonConvergenceError as exc:
            print(f"conjugation failed to converge: {exc}")
            return 3
        rows.append([v for v in xi.reshape(-1)] + [res.value]
                    + [v for v in res.argmax.reshape(-1)]
                    + [res.newton_iters, res.residual])
    header = [f"xi{i+1}{j+1}" for i in range(N) for j in range(n)] + ["value"] \
        + [f"z{i+1}{j+1}" for i in range(N) for j in range(n)] + ["iters", "residual"]
    write_csv(args.out or sys.stdout, header, rows)
    return 0


def cmd_solve(args):
    cfg = load_config(args.config)
    try:
        res = _solve_once(cfg, cfg.amplitudes[0], _solve_grid(cfg))
    except solver.NonConvergenceError as exc:
        print(f"solver failed to converge: {exc}")
        return 3
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for rep, gterm in zip(res.reports, res.gamma_terms):
        rows.append((rep.epsilon, rep.gamma_eps, rep.energy, rep.residual_sup,
                     rep.iterations, gterm))
    write_csv(os.path.join(args.out, "reports.csv"),
              ["epsilon", "gamma_eps", "energy", "residual_sup", "iterations",
               "gamma_term"], rows)
    solver.export_field_csv(res.field, os.path.join(args.out, "field.csv"))
    solver.export_gradients_csv(res.field, os.path.join(args.out, "gradients.csv"))
    for v in res.violations:
        print(f"scheme monitor: {v}")
    print(f"solved {len(res.reports)} rungs; final energy {_fmt(res.reports[-1].energy)}; "
          f"outputs in {args.out}")
    if any(v.startswith("eps=") for v in res.violations):
        return 3
    return 0


def cmd_diagnose(args):
    cfg = load_config(args.config)
    try:
        report = run_diagnose(cfg)
    except solver.NonConvergenceError as exc:
        print(f"solver failed to converge: {exc}")
        return 3
    write_csv(args.out, DIAG_HEADER, _diag_rows(report))
    bad = [e for e in report.entries
           if not (math.isfinite(e.lhs) and math.isfinite(e.rhs))]
    print(f"wrote {len(report.entries)} rows to {args.out}")
    if bad:
        print(f"{len(bad)} non-finite measurements")
        return 1
    return 0


def _sweep_point(cfg_text, base_dir, vary, value):
    cfg = parse_config(cfg_text, base_dir=base_dir)
    if vary == "q":
        try:
            cfg.regime = cfg.regime.with_exponents(q=value)
        except InvalidRegimeError as exc:
            return {"value": value, "admissible": False, "threshold": math.nan,
                    "error": str(exc), "entries": []}
        amp = cfg.amplitudes[0]
    else:
        amp = value
    adm = validate_regime(cfg.regime)
    row = {"value": value, "admissible": adm.admissible, "threshold": adm.threshold,
           "error": "", "entries": []}
    solvable = adm.admissible and cfg.regime.n in (2, 3)
    if not solvable:
        return row
    try:
        # before the solve: an explicit sobolev_exp may not suit this q
        diagnostics.hd_exponents(cfg.regime, cfg.sobolev_exp)
        res = _solve_once(cfg, amp, _solve_grid(cfg))
        rep = measure_estimates(cfg, amp, res)
        row["entries"] = [(e.estimate_id, e.lhs, e.rhs, e.ratio) for e in rep.entries]
    except diagnostics.InadmissibleSobolevExponent as exc:
        row["error"] = str(exc)
    except solver.NonConvergenceError as exc:
        row["error"] = f"non-convergence: {exc}"
    return row


def cmd_sweep(args):
    with open(args.config) as fh:
        cfg_text = fh.read()
    base_dir = os.path.dirname(os.path.abspath(args.config))
    cfg = parse_config(cfg_text, base_dir=base_dir)  # validate before the pool spins up
    values = _floats("--values", args.values)
    if args.vary not in ("q", "amplitude"):
        print(f"cannot vary {args.vary!r}; choose q or amplitude")
        return 2
    if args.vary == "amplitude":
        _check_amplitudes("--values", values)
    jobs = [(cfg_text, base_dir, args.vary, v) for v in values]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_sweep_point, *zip(*jobs)))
    else:
        results = [_sweep_point(*job) for job in jobs]
    rows = []
    for row in results:
        if row["entries"]:
            for est, lhs, rhs, ratio in row["entries"]:
                rows.append((args.vary, row["value"], row["admissible"],
                             row["threshold"], est, lhs, rhs, ratio, row["error"]))
        else:
            rows.append((args.vary, row["value"], row["admissible"], row["threshold"],
                         "", None, None, None, row["error"]))
    header = ["vary", "value", "admissible", "threshold", "estimate_id", "lhs",
              "rhs", "ratio", "error"]
    if args.out:
        write_csv(args.out, header, rows)
    write_csv(sys.stdout, header, rows)
    return 0


def cmd_gehring(args):
    try:
        t = growth.gehring_exponent(args.c0, args.M, args.m)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{t:.12g}")
    return 0


def cmd_moser(args):
    try:
        params = diagnostics.MoserParams(alpha0=args.alpha0, gamma=args.gamma,
                                         c0=args.c0, M=args.M, tau1=args.tau1,
                                         tau2=args.tau2)
        bound = diagnostics.moser_bound(params, args.V0)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print("i,alpha_i")
    for i in range(args.count + 1):
        print(f"{i},{_fmt(diagnostics.moser_alpha_sequence(params, i))}")
    print(f"bound,{_fmt(bound)}")
    return 0


def _count(text):
    """argparse type: an integer of at least 1."""
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def _index(text):
    """argparse type: an integer of at least 0."""
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {k}")
    return k


def _radius(text):
    """argparse type: a positive finite float."""
    r = float(text)
    if not (0.0 < r < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return r


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pqvar",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="growth certification of the configured integrand")
    pc.add_argument("--config", required=True)
    pc.add_argument("--samples", type=_count, default=10000)
    pc.add_argument("--radius", type=_radius, default=1e3)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_check)

    pj = sub.add_parser("conjugate", help="table of conjugate values at sampled points")
    pj.add_argument("--config", required=True)
    pj.add_argument("--count", type=_count, default=10)
    pj.add_argument("--radius", type=_radius, default=5.0)
    pj.add_argument("--out", default=None)
    pj.set_defaults(fn=cmd_conjugate)

    ps = sub.add_parser("solve", help="run the regularized scheme and export the field")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_solve)

    pd = sub.add_parser("diagnose", help="solve per amplitude and measure the estimates")
    pd.add_argument("--config", required=True)
    pd.add_argument("--out", required=True)
    pd.set_defaults(fn=cmd_diagnose)

    pw = sub.add_parser("sweep", help="vary q or amplitude; one diagnostics row per point")
    pw.add_argument("--config", required=True)
    pw.add_argument("--vary", required=True)
    pw.add_argument("--values", required=True)
    pw.add_argument("--out", default=None)
    pw.set_defaults(fn=cmd_sweep)

    pg = sub.add_parser("gehring", help="self-improvement exponent t(c0, M, m)")
    pg.add_argument("--c0", type=float, required=True)
    pg.add_argument("--M", type=float, required=True)
    pg.add_argument("--m", type=float, required=True)
    pg.set_defaults(fn=cmd_gehring)

    pm = sub.add_parser("moser", help="power ladder table and the iterated sup bound")
    pm.add_argument("--alpha0", type=float, default=-1.0)
    pm.add_argument("--gamma", type=float, required=True)
    pm.add_argument("--c0", type=float, default=1.0)
    pm.add_argument("--M", type=float, default=1.0)
    pm.add_argument("--tau1", type=float, default=0.25)
    pm.add_argument("--tau2", type=float, default=0.125)
    pm.add_argument("--V0", type=float, default=1.0)
    pm.add_argument("--count", type=_index, default=8)
    pm.set_defaults(fn=cmd_moser)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RegionError) as exc:
        print(f"config error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
