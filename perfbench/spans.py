"""Spans around the calls into pqvar's layers, recorded from outside the program.

`Tracer.install` replaces public functions of the pqvar modules by wrappers that
record one span per call: name, start, end, parent span and the round it
belongs to.  Spans stay in flat arrays in memory and are written out once, at
the end of the run.  The program itself is not changed; a wrapped function
called from inside pqvar is traced too, because pqvar calls its own module
functions through the module namespace.
"""

import functools
import time
from array import array

import numpy as np

# span name -> (module name inside pqvar, attribute)
WRAPPED = {
    "solver.run_scheme": ("solver", "run_scheme"),
    "solver.mollify": ("solver", "mollify_boundary"),
    "solver.harmonic": ("solver", "harmonic_extension"),
    "solver.newton": ("solver", "minimize_dirichlet"),
    "solver.hessian": ("solver", "assemble_hessian"),
    "solver.gradient": ("solver", "assemble_gradient"),
    "solver.energy": ("solver", "energy"),
    "duality.conjugate": ("duality", "conjugate"),
    "diagnostics.measure_estimates": ("cli", "measure_estimates"),
    "diagnostics.fit_exponent": ("diagnostics", "fit_exponent"),
}
INTEGRAND_SPANS = ("integrands.value", "integrands.gradient", "integrands.hessian")


class Tracer:
    def __init__(self):
        self.names = []
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round = array("l")
        self.current_round = -1  # -1 marks set-up
        self._stack = []

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        # bound once here: the wrapper runs for every call of a traced function
        clock = time.perf_counter
        stack = self._stack
        code_add, parent_add = self.code.append, self.parent.append
        round_add, start_add = self.round.append, self.start.append
        end, end_add = self.end, self.end.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            code_add(code)
            parent_add(stack[-1] if stack else -1)
            round_add(self.current_round)
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, pqvar_modules):
        """Wrap the functions of WRAPPED, and the constructor of model.Grid."""
        for span, (mod, attr) in WRAPPED.items():
            module = pqvar_modules[mod]
            setattr(module, attr, self.wrap(span, getattr(module, attr)))
        grid_cls = pqvar_modules["model"].Grid
        grid_cls.__init__ = self.wrap("model.grid", grid_cls.__init__)

    def traced_integrand(self, F, base_cls):
        """A delegating wrapper around integrand F whose value, gradient and
        hessian calls are spans; base_cls is pqvar.integrands.Integrand."""
        wrapped = base_cls.__new__(base_cls)
        wrapped.value = self.wrap(INTEGRAND_SPANS[0], F.value)
        wrapped.gradient = self.wrap(INTEGRAND_SPANS[1], F.gradient)
        wrapped.hessian = self.wrap(INTEGRAND_SPANS[2], F.hessian)
        wrapped.growth_exponents = F.growth_exponents
        return wrapped

    def arrays(self):
        start = np.frombuffer(self.start.tobytes(), dtype=float)
        end = np.frombuffer(self.end.tobytes(), dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        if has.any():
            child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {
            "code": np.array(self.code, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "round": np.array(self.round, dtype=np.int64),
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), code=a["code"],
                            start=a["start"], end=a["end"], parent=a["parent"],
                            round=a["round"])


def layer_metrics(tracer, rounds, counts):
    """Per-layer metrics from the spans: the median over rounds of each
    per-round total; model.grid.s covers set-up, where the grid is built.

    counts: one dict per round of counts the program reports itself
    (solver.newton.iters, duality.newton.iters)."""
    a = tracer.arrays()
    code_of = {n: i for i, n in enumerate(tracer.names)}

    def per_round(name, field, under=None):
        """Per-round totals of `field` over the spans called `name`; with
        `under`, only those whose parent span is called `under`."""
        if name not in code_of or (under is not None and under not in code_of):
            return np.zeros(rounds)
        sel = a["code"] == code_of[name]
        if under is not None:
            parent = a["parent"]
            sel &= (parent >= 0) & (a["code"][np.maximum(parent, 0)] == code_of[under])
        r = a["round"][sel]
        keep = r >= 0
        if field == "calls":
            return np.bincount(r[keep], minlength=rounds).astype(float)
        return np.bincount(r[keep], weights=a[field][sel][keep], minlength=rounds)

    def med(values):
        return float(np.median(values)) if len(values) else 0.0

    def ratio(num, den):
        num, den = np.asarray(num), np.asarray(den)
        return med(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0))

    grid_s = float(a["duration"][a["code"] == code_of["model.grid"]].sum()) \
        if "model.grid" in code_of else 0.0
    energy_calls = per_round("solver.energy", "calls")
    hessian_calls = per_round("solver.hessian", "calls")
    conj_value_calls = per_round("integrands.value", "calls", under="duality.conjugate")
    conj_hess_calls = per_round("integrands.hessian", "calls", under="duality.conjugate")
    integrand_s = sum(per_round(n, "duration") for n in INTEGRAND_SPANS)
    diagnostics_s = per_round("diagnostics.measure_estimates", "duration") \
        + per_round("diagnostics.fit_exponent", "duration")
    out = {
        "model.grid.s": (grid_s, "s"),
        "solver.mollify.s": (med(per_round("solver.mollify", "duration")), "s"),
        "solver.harmonic.s": (med(per_round("solver.harmonic", "duration")), "s"),
        "solver.hessian.s": (med(per_round("solver.hessian", "duration")), "s"),
        "solver.hessian.calls": (med(hessian_calls), "count"),
        "solver.gradient.s": (med(per_round("solver.gradient", "duration")), "s"),
        "solver.gradient.calls": (med(per_round("solver.gradient", "calls")), "count"),
        "solver.energy.s": (med(per_round("solver.energy", "duration")), "s"),
        "solver.energy.calls": (med(energy_calls), "count"),
        "solver.newton.self_s": (med(per_round("solver.newton", "self")), "s"),
        "solver.newton.iters": (med([c["solver.newton.iters"] for c in counts]), "count"),
        "solver.energy_per_iter": (ratio(energy_calls, hessian_calls), "ratio"),
        "integrands.s": (med(integrand_s), "s"),
        "integrands.value.calls": (med(per_round("integrands.value", "calls")), "count"),
        "integrands.hessian.calls": (med(per_round("integrands.hessian", "calls")), "count"),
        "duality.conjugate.s": (med(per_round("duality.conjugate", "duration")), "s"),
        "duality.conjugate.self_s": (med(per_round("duality.conjugate", "self")), "s"),
        "duality.newton.iters": (med([c["duality.newton.iters"] for c in counts]), "count"),
        "duality.evals_per_iter": (ratio(conj_value_calls, conj_hess_calls), "ratio"),
        "diagnostics.s": (med(diagnostics_s), "s"),
    }
    return out
