"""The damped Newton loop of the Dirichlet solver and of the Fenchel conjugation.

`solver.minimize_dirichlet` minimizes the discrete Dirichlet energy over the
interior nodal values, and `duality.conjugate` minimizes F(z) - <z, xi>; each
supplies its objective, gradient, Newton step and stopping rule to `minimize`.
"""

import math

FLAT = 1e-15  # a predicted decrease below FLAT * max(1, |objective|) is invisible
MIN_T = 1e-18  # the line search halves t while it exceeds MIN_T


class NonConvergenceError(RuntimeError):
    """Newton stopped short of its stopping rule.  Carries the partial state: the
    Dirichlet solver sets `field` and `report`, the conjugation `z` and `residual`."""

    def __init__(self, message, field=None, report=None, z=None, residual=None):
        super().__init__(message)
        self.field = field
        self.report = report
        self.z = z
        self.residual = residual


def minimize(objective, gradient, newton_step, x, converged, stall_tol, max_iters, partial,
             values=None):
    """Damped Newton minimization of `objective` from the iterate `x`.

    gradient(x) returns the gradient, in the form newton_step(x, g) takes, and
    its residual norm; newton_step returns the step dx and the slope g . dx.
    converged(res, f, f_prev) is tested at every iterate, the last included, with
    f_prev = inf at the start.  partial(x, f, res, iters) gives the keyword
    arguments of the partial state on a NonConvergenceError.

    A step takes the first t = 1, 1/2, ... above MIN_T with a finite lower
    objective, and tries none when the predicted decrease is FLAT.  If no t is
    taken, the objective is flat to machine precision: the full step is then taken
    if it shrinks the residual, and the gradient found there is kept; otherwise
    the loop stops, converged if res <= stall_tol.  A list `values` receives f at
    the start and after every line-search step.

    Returns (x, f, res, iters), where iters counts the steps, the stalled one
    included.
    """
    f = objective(x)
    if not math.isfinite(f):
        raise NonConvergenceError("objective not finite at the start point",
                                  **partial(x, f, None, 0))
    if values is not None:
        values.append(f)
    f_prev = math.inf
    g = None  # the gradient at x, when the flat accept below has found it
    for it in range(max_iters + 1):
        if g is None:
            g, res = gradient(x)
        if not math.isfinite(res):
            raise NonConvergenceError(f"non-finite gradient after {it} steps",
                                      **partial(x, f, res, it))
        if converged(res, f, f_prev):
            return x, f, res, it
        if it == max_iters:
            break
        dx, slope = newton_step(x, g)
        t = 0.0 if -slope <= FLAT * max(1.0, abs(f)) else 1.0
        while t > MIN_T:
            cand = x + t * dx
            fc = objective(cand)
            if math.isfinite(fc) and fc < f:
                x, g, f_prev, f = cand, None, f, fc
                if values is not None:
                    values.append(f)
                break
            t *= 0.5
        else:
            cand = x + dx
            gc, cres = gradient(cand)
            if math.isfinite(cres) and cres < res:
                x, g, res = cand, gc, cres
                f_prev, f = f, objective(cand)
            elif res <= stall_tol:
                return x, f, res, it + 1
            else:
                raise NonConvergenceError(f"line search stalled at residual {res:.3e}",
                                          **partial(x, f, res, it + 1))
    raise NonConvergenceError(f"no convergence after {max_iters} iterations (residual {res:.3e})",
                              **partial(x, f, res, max_iters))
