"""pqvar benchmark: three workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload diagnose2d_vec --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, each in a fresh process

One run sets the workload up, then repeats whole rounds of its operations until
the next round would end past --seconds (at least one round); run_s and
op_p50_s take each operation at its fastest over the rounds.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones (setup_s, run_s, op_p50_s,
peak_rss_mb); with --trace 1 the spans of perfbench/spans.py give the
per-layer ones.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("diagnose2d_vec", "scheme3d", "roundtrip")

CONFIGS = {
    "diagnose2d_vec": ("aniso2d_q4_vec", """\
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
"""),
    "scheme3d": ("aniso3d_q4", """\
n = 3
N = 1
p = 2
q = 4
mu = 0
L = 8
integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4) + axis(i=3,q=4)
cells = 20
boundary = sine
amplitudes = 1
estimates = hd,sup,cacc,stress,decay
"""),
}

# roundtrip: points per built-in, the |z| range, and the cap on |F'(z)|.  Above
# the cap the absolute residual test of the conjugate Newton meets round-off
# and fails at random points; the two witnesses below keep that fault measured.
POINTS_PER_BUILTIN = 300
Z_RANGE = (0.01, 10.0)
XI_CAP = 100.0
CONJUGATE_TOL = 1e-13
WITNESSES = [
    ("quartic_iso", [[6.302448288980706, 7.518309300341385]]),
    ("aniso2d_q4_vec", [[8.130623645282695, -0.8366253268615534],
                        [2.6625959242598753, 2.46835144398055]]),
]


def import_pqvar():
    """Import pqvar from the src/ directory next to perfbench/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "pqvar", "__init__.py")):
        raise SystemExit(f"perfbench: no pqvar sources under {SRC}")
    sys.path.insert(0, SRC)
    import pqvar
    from pqvar import cli, diagnostics, duality, integrands, model, registry, solver
    if not os.path.abspath(pqvar.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pqvar from {pqvar.__file__}, not {SRC}")
    return {"cli": cli, "diagnostics": diagnostics, "duality": duality,
            "integrands": integrands, "model": model, "registry": registry,
            "solver": solver}


class Round:
    """Outcome of one round: per-operation seconds, failures, check findings."""

    def __init__(self):
        self.seconds = []      # one entry per operation, in the same order every round
        self.fit_s = 0.0       # the exponent fit pass after the operations
        self.failed = 0
        self.problems = []
        self.counts = {"solver.newton.iters": 0, "duality.newton.iters": 0}


# ------------------------------------------------------------- scheme workloads


class SchemeWorkload:
    """run_scheme plus cli.measure_estimates per amplitude, then the exponent
    fit pass of cli.run_diagnose; the grid and boundary data are set-up."""

    def __init__(self, name):
        self.builtin, self.config_text = CONFIGS[name]

    def setup(self, pq, seed):
        self.pq = pq
        self.cfg = pq["cli"].parse_config(self.config_text)
        entry = pq["registry"].get(self.builtin)
        if entry.regime != self.cfg.regime:
            raise SystemExit(f"perfbench: config regime {self.cfg.regime} is not "
                             f"the registry's {entry.regime}")
        self.grid = pq["model"].Grid(self.cfg.regime.n, self.cfg.cells)
        self.data = [pq["solver"].boundary_family(self.cfg.boundary, self.grid, amp,
                                                  self.cfg.regime.N, seed=self.cfg.seed)
                     for amp in self.cfg.amplitudes]
        self.rng = np.random.default_rng(seed)

    def prepare_checks(self):
        self.ref_form = reference.BUILTINS[self.builtin][0]
        self.mesh = reference.Mesh(self.grid.node_coords, self.grid.simplex_vertices)
        shape = (self.cfg.regime.N, self.cfg.regime.n)
        forms = {self.builtin: (self.ref_form, shape),
                 "regularized": (self.ref_form.regularized(0.3, self.cfg.regime.q), shape)}
        problems = reference.self_check(self.mesh, forms, self.rng)
        # the program's integrand against the closed form, at a few points
        z = self.rng.normal(size=(64,) + shape) * 2.0
        F = self.cfg.integrand
        for what, got, want in (("value", F.value(z), self.ref_form.value(z)),
                                ("gradient", F.gradient(z), self.ref_form.gradient(z))):
            err = float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))
            if err > 1e-13:
                problems.append(f"integrand {what} differs from the closed form by {err:.3e}")
        return problems

    def run_round(self, wrap_integrand):
        pq, clock = self.pq, time.perf_counter
        F = wrap_integrand(self.cfg.integrand)
        cfg = dataclasses.replace(self.cfg, integrand=F)
        rnd = Round()
        reports = pq["model"].DiagnosticsReport()
        for amp, data in zip(cfg.amplitudes, self.data):
            t0 = clock()
            res = pq["solver"].run_scheme(F, cfg.regime, self.grid, data, cfg.schedule())
            rep = pq["cli"].measure_estimates(cfg, amp, res)
            rnd.seconds.append(clock() - t0)
            reports.extend(rep)
            rnd.counts["solver.newton.iters"] += sum(r.iterations for r in res.reports)
            rnd.problems += [f"amplitude {amp}: {p}" for p in self.check(amp, data, res, rep)]
        t0 = clock()
        self.fit_pass(cfg, reports)
        rnd.fit_s = clock() - t0
        for e in reports.entries:
            if e.estimate_id in ("hdes", "sup_grad") or e.estimate_id.startswith("rh_t="):
                fitted = len(reports.by_id(e.estimate_id)) >= 4
                if fitted and not (e.fitted_exponent is not None
                                   and math.isfinite(e.fitted_exponent)):
                    rnd.problems.append(f"{e.estimate_id}: no finite fitted exponent")
        return rnd

    def fit_pass(self, cfg, report):
        """The exponent fits cli.run_diagnose makes after the last amplitude."""
        diagnostics = self.pq["diagnostics"]
        chain = diagnostics.hd_exponents(cfg.regime, cfg.sobolev_exp)
        for est in sorted({e.estimate_id for e in report.entries}):
            if not (est in ("hdes", "sup_grad") or est.startswith("rh_t=")):
                continue
            entries = report.by_id(est)
            if len(entries) >= 4:
                bases = [e.rhs ** (1.0 / chain.b) for e in entries]
                try:
                    b, _ = diagnostics.fit_exponent(bases, [e.lhs for e in entries])
                except ValueError:
                    continue
                for e in entries:
                    e.fitted_exponent = b

    def check(self, amp, data, res, rep):
        """Checks of one scheme run against the reference code and against
        properties the method must have; returns the failures."""
        mesh, cfg = self.mesh, self.cfg
        bad = []
        last = res.reports[-1]
        u = np.asarray(res.field.values, dtype=float)
        Feps = self.ref_form.regularized(last.gamma_eps, cfg.regime.q)
        residual = mesh.residual(Feps, u)
        if not residual <= 1e-8:
            bad.append(f"Euler-Lagrange residual {residual:.3e} > 1e-8")
        E = mesh.energy(Feps, u)
        if not abs(E - last.energy) <= 1e-10 * abs(E):
            bad.append(f"energy {E!r} vs reported {last.energy!r}")
        interior = ~mesh.boundary
        for step in (1e-4, 1e-2):
            for _ in range(3):
                w = np.zeros_like(u)
                w[interior] = self.rng.normal(size=(int(interior.sum()), u.shape[1]))
                w *= step / np.abs(w).max()
                Ep = mesh.energy(Feps, u + w)
                if not Ep >= E:
                    bad.append(f"perturbation of size {step:g} lowers the energy: {Ep!r} < {E!r}")
        braw = data[mesh.boundary]
        slack = 1e-13 * max(1.0, float(np.abs(braw).max()))
        bu = u[mesh.boundary]
        if not (np.all(bu >= braw.min(axis=0) - slack) and np.all(bu <= braw.max(axis=0) + slack)):
            bad.append("boundary rows leave the range of the raw boundary data")
        if res.violations:
            bad.append(f"violations: {res.violations}")
        gt = res.gamma_terms
        if not all(b < a for a, b in zip(gt, gt[1:])):
            bad.append(f"viscosity terms not strictly decreasing: {gt}")
        if not all(m >= 0.0 for pair in res.enes_margins for m in pair):
            bad.append(f"negative minimality margin: {res.enes_margins}")
        B = cfg.region
        eighth = ((mesh.barycenters - np.asarray(B.center)) ** 2).sum(axis=1) < (B.radius / 8) ** 2
        sup = float(np.sqrt((mesh.gradients(u)[eighth] ** 2).sum(axis=(1, 2))).max())
        for e in rep.by_id("sup_grad"):
            if not abs(e.lhs - sup) <= 1e-12 * sup:
                bad.append(f"sup_grad lhs {e.lhs!r} vs recomputed {sup!r}")
        for e in rep.entries:
            if not (math.isfinite(e.lhs) and math.isfinite(e.rhs) and e.lhs >= 0 and e.rhs >= 0):
                bad.append(f"diagnostics entry {e.estimate_id}: lhs {e.lhs}, rhs {e.rhs}")
        return bad


# ------------------------------------------------------------- roundtrip


class RoundtripWorkload:
    """conjugate(F, F'(z), tol=1e-13) at seeded points of every built-in, then
    at the two witnesses of the conjugation fault."""

    def setup(self, pq, seed):
        self.pq = pq
        rng = np.random.default_rng(seed)
        lo, hi = math.log(Z_RANGE[0]), math.log(Z_RANGE[1])
        self.ops = []  # (builtin name, integrand, closed form, z, xi)
        for name in pq["registry"].names():
            entry = pq["registry"].get(name)
            form, shape = reference.BUILTINS[name]
            if shape != entry.shape:
                raise SystemExit(f"perfbench: {name} has shape {entry.shape}, expected {shape}")
            zs = []
            while len(zs) < POINTS_PER_BUILTIN:
                z = rng.normal(size=shape)
                z *= math.exp(rng.uniform(lo, hi)) / math.sqrt(float((z * z).sum()))
                if math.sqrt(float((form.gradient(z) ** 2).sum())) <= XI_CAP:
                    zs.append(z)
            zs = np.array(zs)
            xis = entry.integrand.gradient(zs)
            self.ops += [(name, entry.integrand, form, z, xi) for z, xi in zip(zs, xis)]
        for name, z in WITNESSES:
            entry = pq["registry"].get(name)
            z = np.array(z)
            self.ops.append((name, entry.integrand, reference.BUILTINS[name][0], z,
                             entry.integrand.gradient(z)))

    def prepare_checks(self):
        problems = []
        for name, _, form, z, xi in self.ops:
            want = form.gradient(z)
            err = float(np.abs(xi - want).max() / (1.0 + np.abs(want).max()))
            if err > 1e-13:
                problems.append(f"{name}: integrand gradient differs from the closed form by {err:.3e}")
        return problems

    def run_round(self, wrap_integrand):
        duality, clock = self.pq["duality"], time.perf_counter
        rnd = Round()
        for name, F, form, z, xi in self.ops:
            t0 = clock()
            try:
                res = duality.conjugate(wrap_integrand(F), xi, tol=CONJUGATE_TOL)
            except duality.NonConvergenceError:
                res = None
            rnd.seconds.append(clock() - t0)
            if res is None:
                rnd.failed += 1
                continue
            rnd.counts["duality.newton.iters"] += res.newton_iters
            zn = math.sqrt(float((z * z).sum()))
            err = float(np.abs(res.argmax - z).max()) / (1.0 + zn)
            if not err <= 1e-8:
                rnd.problems.append(f"{name} at |z|={zn:.4g}: argmax error {err:.3e}")
            zxi, Fz = float((z * xi).sum()), float(form.value(z))
            ref = zxi - Fz
            if not abs(res.value - ref) <= 1e-10 * max(abs(zxi), abs(Fz)):
                rnd.problems.append(f"{name} at |z|={zn:.4g}: conjugate {res.value!r} "
                                   f"vs <z,xi> - F(z) = {ref!r}")
        return rnd


def make_workload(name):
    return RoundtripWorkload() if name == "roundtrip" else SchemeWorkload(name)


# ------------------------------------------------------------- running


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_workload(args):
    if args.setup_probe:
        pq = import_pqvar()
        make_workload(args.workload).setup(pq, args.seed)
        print(repr(time.time()))
        return 0

    pq = import_pqvar()
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed)
                                           for _ in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(pq)
    wl = make_workload(args.workload)
    wl.setup(pq, args.seed)
    problems = wl.prepare_checks()

    if tracer:
        traced = {}  # one wrapper per integrand, keyed by its id

        def wrap(F):
            if id(F) not in traced:
                traced[id(F)] = tracer.traced_integrand(F, pq["integrands"].Integrand)
            return traced[id(F)]
    else:
        def wrap(F):
            return F

    rounds = []
    t_begin = time.perf_counter()
    while True:
        if tracer:
            tracer.current_round = len(rounds)
        t0 = time.perf_counter()
        rounds.append(wl.run_round(wrap))
        now = time.perf_counter()
        if now - t_begin + (now - t0) > args.seconds:
            break
    if tracer:
        tracer.current_round = -2

    for r in rounds:
        problems += r.problems
    attempted = sum(len(r.seconds) for r in rounds)
    failed = sum(r.failed for r in rounds)
    # Each operation at its fastest over the rounds: on a shared machine the
    # slow phases come and go, and the minimum filters them out much better
    # than a median over rounds does (see README.md, "Reference figures").
    fastest = np.array([r.seconds for r in rounds]).min(axis=0)
    run_s = float(fastest.sum()) + min(r.fit_s for r in rounds)
    op_p50 = float(np.median(fastest))
    os.makedirs(OUT, exist_ok=True)
    if tracer:
        layers = spans.layer_metrics(tracer, len(rounds), [r.counts for r in rounds])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_p50_s": {"value": op_p50, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), wall_s_per_round=[sum(r.seconds) + r.fit_s for r in rounds],
                  setup_samples=setup_samples, problems=problems[:50])
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    print(f"  run_s {run_s:.4f} s (fastest per operation over {len(rounds)} rounds"
          f"{', traced' if tracer else ''})")
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process; one JSON summary line at the end."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload; all of them, each in a fresh process, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
