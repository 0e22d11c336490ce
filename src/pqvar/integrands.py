"""The integrand family: power norms, axis powers, even polynomials, sums, scalings.

All evaluations are batched: a gradient variable argument `z` may have shape
(N, n) or (..., N, n); values come back with the batch shape, gradients with
shape (..., N, n), and hessians as bilinear forms of shape (..., N, n, N, n).
Every formula is the exact analytic derivative, so finite differences of
`value` must reproduce `gradient` at rate O(h^2) (see `fd_check`).

Power norms and axis powers are radial terms c (mu^2 + r)^(p/2), r the sum of
the squares of a set of entries of z: all of them, or one column.  A Sum or a
Scaled flattens its radial terms, through nested sums and scalings, into one
table (_Table) when it is built; a lone power norm or axis power is a table of
one.  The table groups its terms by the entries they read and merges their
weights, mu^2 and p into the factors of each group, numbers wherever p = 2 or
4.  Per (N, n) it compiles every output entry into one sum of products of
vectors of the call, which it forms once each: the squared entries, the
groups' r and the common part of the power norms.  Homogeneous forms, and any
other integrand inside a Sum, add their derivatives through the hooks of
Integrand.

Batches are entry-major in memory: the logical shapes are as above, but every
term here, polynomials included, stores a batched gradient with its (N, n)
entry axes first and the batch axes last in memory, and a batched hessian in the memory order
(i, j, k, l, batch) of its entry H[..., i, k, j, l].  Each entry is then one
contiguous vector over the batch, which is what the kernels and the matrix
assembly read and write.  A single point, with no batch axes, is C-contiguous.
Any layout is accepted as input.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ShapeMismatchError


def frob2(z):
    """Squared Frobenius norm over the trailing (N, n) axes.

    The squared entries are added one at a time in row-major order, each a
    vector op over the batch: numpy would reduce the trailing axes with inner
    loops of length N*n.  For N*n < 8 the order is numpy's own, so the result
    is bit-identical to (z * z).sum(axis=(-2, -1))."""
    zT = np.asarray(z, dtype=float).T
    w = [zT[s] for s in _slots(*zT.shape[1::-1])]
    out = w[0] * w[0]
    for x in w[1:]:
        out += x * x
    return out.T


@functools.lru_cache(maxsize=32)
def _slots(N, n):
    """The (j, i) index of every entry z[..., i, j] into the transpose z.T, in
    row-major order of (i, j).  Indexing z.T puts the entry axes first, so one
    entry is a batch vector, or a numpy scalar when z is a single point."""
    return tuple((j, i) for i in range(N) for j in range(n))


def ell_mu(mu, z):
    """ell_mu(z) = (mu^2 + |z|^2)^(1/2) with the Frobenius norm."""
    if mu < 0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    return np.sqrt(mu * mu + frob2(z))


def v_map(mu, gamma, z):
    """V_{mu,gamma}(z) = (mu^2 + |z|^2)^((gamma-2)/4) z.

    Encodes the p-Laplacian scaling; gamma = 2 is the identity.
    """
    if gamma <= 1.0:
        raise ValueError(f"v_map requires gamma > 1, got {gamma}")
    z = np.asarray(z, dtype=float)
    t = mu * mu + frob2(z)
    e = (gamma - 2.0) / 4.0
    if e == 0.0:
        return z.copy()
    w = np.where(t > 0.0, t, 1.0) ** e
    w = np.where(t > 0.0, w, 0.0)  # only reachable with mu = 0, z = 0, gamma > 2
    return w[..., None, None] * z


def inner(a, b):
    """Frobenius inner product over the trailing (N, n) axes."""
    return (np.asarray(a) * np.asarray(b)).sum(axis=(-2, -1))


def flatten_form(H):
    """A (..., N, n, N, n) bilinear form as (..., N*n, N*n) matrices: a view of a
    single point, a copy of an entry-major batch."""
    H = np.asarray(H)
    N, n = H.shape[-4], H.shape[-3]
    return H.reshape(H.shape[:-4] + (N * n, N * n))


class Integrand:
    """Common interface: value(z), gradient(z), hessian(z), all batched.

    Power norms, axis powers, their sums and their scalings evaluate through
    one table of radial terms (see _Table).  Any other term inside a Sum is
    reached through the private hooks _add_gradient(z, out, c) and
    _add_hessian(z, out, c), which add c F'(z) or c F''(z) into a buffer the
    caller owns.  The defaults go through the public methods, so an integrand
    that defines only value, gradient and hessian works inside a Sum
    unchanged."""

    def value(self, z):
        raise NotImplementedError

    def gradient(self, z):
        raise NotImplementedError

    def hessian(self, z):
        raise NotImplementedError

    def _add_gradient(self, z, out, c):
        out += c * self.gradient(z)

    def _add_hessian(self, z, out, c):
        out += c * self.hessian(z)

    def growth_exponents(self):
        """Structural (lowest, highest) growth degrees, used for solver seeds."""
        raise NotImplementedError

    def __add__(self, other):
        return Sum([self, other])

    def __rmul__(self, coeff):
        return Scaled(float(coeff), self)


def _as_batch(z):
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        raise ShapeMismatchError(f"gradient variable must have shape (..., N, n), got {z.shape}")
    return z


def _entry_major(entries, batch, axes):
    """An uninitialized array of logical shape batch + entries[axes], stored with
    the entry axes first in memory, in the order of `entries`, and the batch
    axes last."""
    out = np.empty(entries + batch)
    return out.transpose(tuple(range(len(entries), out.ndim)) + axes)


def _gradient_out(z):
    """An uninitialized gradient for z: C-ordered for a single point, entry-major
    for a batch."""
    if z.ndim == 2:
        return np.empty(z.shape)
    return _entry_major(z.shape[-2:], z.shape[:-2], (0, 1))


def _hessian_out(z):
    """An uninitialized hessian for z: C-ordered for a single point, and for a
    batch in the memory order (i, j, k, l, batch) of its entry H[..., i, k, j, l]."""
    N, n = z.shape[-2:]
    if z.ndim == 2:
        return np.empty((N, n, N, n))
    return _entry_major((N, N, n, n), z.shape[:-2], (0, 2, 1, 3))


class _Accumulating(Integrand):
    """An integrand whose derivatives are its hooks: the public gradient and
    hessian zero one output and add into it with c = 1."""

    def gradient(self, z):
        z = _as_batch(z)
        out = _gradient_out(z)
        out[...] = 0.0
        self._add_gradient(z, out, 1.0)
        return out

    def hessian(self, z):
        z = _as_batch(z)
        out = _hessian_out(z)
        out[...] = 0.0
        self._add_hessian(z, out, 1.0)
        return out


def _term(k, x, y, out):
    """k x y, or k x when y is None, written into the batch vector `out`; with
    out None (a single point) the same operations run on numbers."""
    if out is None:
        v = x if k == 1.0 else x * k
        return v if y is None else v * y
    if k == 1.0 and y is not None:
        return np.multiply(x, y, out=out)
    np.multiply(x, k, out=out)
    if y is not None:
        out *= y
    return out


def _combine(const, terms, v, out):
    """const + the sum of the terms k x y over the (k, x, y) in `terms`, in
    order, where x and y index the vectors v (y None for k x); the number const
    when there are no terms.  For a batch the first term is formed in the
    vector `out` and each other one in a scratch vector, or added directly when
    it is a lone x; for a single point (out None) the same operations run on
    numbers, so a point gets the bits of its batch row."""
    if not terms:
        return const
    (k, x, y), rest = terms[0], terms[1:]
    out = _term(k, v[x], None if y is None else v[y], out)
    scratch = None
    for k, x, y in rest:
        if k == 1.0 and y is None:
            out += v[x]
            continue
        if scratch is None and isinstance(out, np.ndarray):
            scratch = np.empty_like(out)
        out += _term(k, v[x], None if y is None else v[y], scratch)
    if const:
        out += const
    return out


def _times(formula, v, ws, out):
    """A formula (const, terms) of _combine times the entries ws, in order.
    For a batch it is written into the vector `out`: the formula's one vector,
    when that is all of it, is multiplied straight in, else the formula is
    formed there and multiplied in place.  For a single point (out None) the
    same products run on numbers."""
    const, terms = formula
    one = not const and len(terms) == 1 and terms[0][0] == 1.0 and terms[0][2] is None
    if out is None:
        f = v[terms[0][1]] if one else _combine(const, terms, v, None)
        for x in ws:
            f = f * x
        return f
    if one:
        np.multiply(v[terms[0][1]], ws[0], out=out)
    elif terms:
        _combine(const, terms, v, out)
        out *= ws[0]
    else:
        np.multiply(ws[0], const, out=out)
    for x in ws[1:]:
        out *= x
    return out


def _collected(factors):
    """The sum of (const, terms) factors as one: the constants added, and the
    coefficients of one product x y added together, in the order of first
    appearance."""
    const, acc = 0.0, {}
    for c, terms in factors:
        const += c
        for k, x, y in terms:
            acc[x, y] = (acc[x, y][0] + k, x, y) if (x, y) in acc else (k, x, y)
    return const, list(acc.values())


def _power(t, e):
    """t^e for a batch vector or a number, by the same operations for both: a
    product of sqrt(t) and t's for a half-integer e (0 at t = 0 when e < 0),
    which numpy and Python round alike; numpy's power for any other e, below
    e = 0 taken only where t > 0, and 0 at t = 0."""
    batch = isinstance(t, np.ndarray)
    if e % 1.0 == 0.5:
        s = np.sqrt(t) if batch else math.sqrt(t)
        if e < 0.0:
            if not batch:
                return 1.0 / s if s > 0.0 else 0.0
            out = np.zeros_like(t)
            np.divide(1.0, s, out=out, where=s > 0.0)
            return out
        for _ in range(int(e)):
            s = s * t
        return s
    if not batch:
        return np.power(t, e) if e >= 0.0 or t > 0.0 else np.float64(0.0)
    if e >= 0.0:
        return np.power(t, e)
    out = np.zeros_like(t)
    np.power(t, e, out=out, where=t > 0.0)
    return out


class _Group:
    """The radial terms c t^(p/2), t = mu^2 + r, that read one set of entries, r
    the sum of their squares.  Their factors are merged at construction: for
    p = 2 and p = 4 every factor is a polynomial in r, so the terms add into the
    coefficients of the value v0 + v1 r + v2 r^2, of the first factor a0 + a1 r
    (the gradient is a w on these entries) and of the second factor b0 (the
    hessian is a Id + b w (x) w).  Any other p is kept as a power (c, mu^2, p):
    a = c p t^((p-2)/2) and b = c p (p-2) t^((p-4)/2), whose limits at t = 0
    are 0.  A term with c = 0 adds nothing."""

    def __init__(self):
        self.v0 = self.v1 = self.v2 = self.a0 = self.a1 = self.b0 = 0.0
        self.powers = []

    def add(self, c, mu2, p):
        if p == 2.0:  # c t: a = 2 c
            self.v0 += c * mu2
            self.v1 += c
            self.a0 += 2.0 * c
        elif p == 4.0:  # c t^2: a = 4 c t, b = 8 c
            self.v0 += c * mu2 * mu2
            self.v1 += 2.0 * c * mu2
            self.v2 += c
            self.a0 += 4.0 * c * mu2
            self.a1 += 4.0 * c
            self.b0 += 8.0 * c
        elif c:
            self.powers.append((c, mu2, p))

    def factor(self, name, r):
        """The factor `name` ("value", "first" or "second") as (const, terms),
        const + the sum of k x y over the (k, x, y) in terms, where x and y name
        vectors (see _compile): r is the name of this group's r."""
        if name == "value":
            terms = [(self.v1, r, None)] if self.v1 else []
            if self.v2:
                terms.append((self.v2, r, r))
            return self.v0, terms + [(c, ("pow", r, mu2, p / 2.0), None)
                                     for c, mu2, p in self.powers]
        if name == "first":
            terms = [(self.a1, r, None)] if self.a1 else []
            return self.a0, terms + [(c * p, ("pow", r, mu2, (p - 2.0) / 2.0), None)
                                     for c, mu2, p in self.powers]
        return self.b0, [(c * p * (p - 2.0), ("pow", r, mu2, (p - 4.0) / 2.0), None)
                         for c, mu2, p in self.powers]


def _compile(groups, cols, N, n):
    """The plan of a table (see _Table) on z of shape (..., N, n).

    Formulas are first built on named vectors: ("sq", k) for w_k^2, ("r", ks)
    for the sum of the squares of the entries ks (a group of one entry reads
    its square), ("pow", r, mu^2, e) for t^e and ("common", name) for a common
    part.  Each of value, gradient and hessian then gets its program: the steps
    that form the vectors its formulas read, each after those it reads, and
    the formulas with each name replaced by the index of its vector in the
    call's list, which starts with the d entries."""
    d = N * n
    members = []
    for col in cols:
        if col is not None and col > n:
            raise ShapeMismatchError(f"axis index i={col} exceeds the number of columns n={n}")
        members.append(tuple(range(d)) if col is None else tuple(range(col - 1, d, n)))
    radius = [("sq", m[0]) if len(m) == 1 else ("r", m) for m in members]
    common = [g for g, m in enumerate(members) if len(m) == d]
    own = [[g for g, m in enumerate(members) if k in m and g not in common] for k in range(d)]
    formulas = {}  # the common parts, by name

    def factors(groups_read, name):
        return [groups[g].factor(name, radius[g]) for g in groups_read]

    def common_part(name):
        const, terms = _collected(factors(common, name))
        if not terms:
            return const, []
        formulas["common", name] = (const, terms)
        return 0.0, [(1.0, ("common", name), None)]

    base_a, base_b = common_part("first"), common_part("second")
    value = _collected(factors(range(len(groups)), "value"))
    gradient = [_collected(factors(own[k], "first") + [base_a]) if own[k] or common else None
                for k in range(d)]
    diagonal = []  # a + b w_k^2
    for k in range(d):
        b, b_terms = _collected(factors(own[k], "second") + [base_b])
        sq = ("sq", k)
        diagonal.append(_collected(factors(own[k], "first") + [base_a] + [
            (0.0, ([(b, sq, None)] if b else []) + [(c, x, sq) for c, x, _ in b_terms])]))
    pairs = []  # b w_k w_m
    for k in range(d):
        for m in range(k + 1, d):
            b = _collected(factors([g for g in own[k] if m in members[g]], "second") + [base_b])
            pairs.append((k, m, b if b[0] or b[1] else None))

    def program(parts):
        steps, index = [], {}

        def need(x):
            if x not in index:
                if x[0] == "sq":
                    step = ("sq", x[1])
                elif x[0] == "r":
                    step = ("r", [need(("sq", k)) for k in x[1]])
                elif x[0] == "pow":
                    step = ("pow", need(x[1]), x[2], x[3])
                else:
                    step = ("common",) + indexed(formulas[x])
                index[x] = d + len(steps)
                steps.append(step)
            return index[x]

        def indexed(f):
            return None if f is None else (
                f[0], [(k, need(x), None if y is None else need(y)) for k, x, y in f[1]])

        return steps, [indexed(f) for f in parts]

    return {"slots": _slots(N, n), "value": program([value]),
            "gradient": program(gradient),
            "hessian": program(diagonal + [b for _, _, b in pairs]),
            "pairs": [(k, m) for k, m, _ in pairs]}


def _vectors(steps, w, shape):
    """The vectors of one call: the entries w, then one per step of a program
    (see _compile).  `shape` is the batch shape of an entry, None for a single
    point."""
    v = list(w)
    for step in steps:
        kind = step[0]
        if kind == "sq":
            v.append(v[step[1]] * v[step[1]])
        elif kind == "r":
            ks = step[1]
            r = v[ks[0]] + v[ks[1]]
            for k in ks[2:]:
                r += v[k]
            v.append(r)
        elif kind == "pow":
            _, r, mu2, e = step
            v.append(_power(mu2 + v[r] if mu2 else v[r], e))
        else:
            v.append(_combine(step[1], step[2], v, None if shape is None else np.empty(shape)))
    return v


class _Table:
    """The radial terms of an integrand, grouped by the entries they read: all
    of them for a power norm (column None), column i for an axis power.

    Each group sums the factors of its terms (see _Group).  On z of shape
    (..., N, n) the gradient entry k is a_k w_k, a_k the sum of a over the
    groups that read entry k, and the hessian is the sum over the groups of
    a Id + b w (x) w on their entries.  Per (N, n) these sums are compiled once
    (_compile) into formulas, one per output entry: a number plus terms k x y,
    with the numbers k merged and x, y vectors of the call.  Those are the
    squares w_k^2, each formed once; each group's r, the sum of its squares (the
    square itself for a group of one entry); the powers t^e for p other than 2
    and 4; and the common part of the groups that read every entry (the power
    norms), evaluated once.  Entries are addressed by their slots (see _slots),
    so the Python loops run over the few entries and terms while every numpy
    operation is a vector op over the batch, or a number op on a single point.
    Each output entry is written once: the first product of its sum goes
    straight into it, and an entry that no group reaches is set to 0."""

    def __init__(self, leaves):
        groups = {}
        for col, c, mu2, p in leaves:
            groups.setdefault(col, _Group()).add(c, mu2, p)
        self.cols, self.groups = list(groups), list(groups.values())
        self._plans = {}

    def _start(self, z, method):
        """The slots of z, its entries w, the batch shape of an entry (None for
        a single point), and the vectors and formulas of `method`."""
        plan = self._plans.get(z.shape[-2:])
        if plan is None:
            plan = self._plans[z.shape[-2:]] = _compile(self.groups, self.cols, *z.shape[-2:])
        if z.ndim == 2:  # a single point: its entries as numbers
            w, shape = z.reshape(-1).tolist(), None
        else:
            zT = z.T
            w = [zT[s] for s in plan["slots"]]
            shape = w[0].shape
        steps, formulas = plan[method]
        return plan, w, shape, _vectors(steps, w, shape), formulas

    def value(self, z):
        """The sum of the terms' values, with the batch axes of z."""
        _, _, shape, v, ((const, terms),) = self._start(z, "value")
        if shape is None:
            return np.float64(_combine(const, terms, v, None))
        out = np.empty(shape)
        if terms:
            _combine(const, terms, v, out)
        else:
            out[...] = const
        return out.T

    def write_gradient(self, z, out):
        """Write the terms' gradient into every entry of out."""
        plan, w, shape, v, gradient = self._start(z, "gradient")
        gT = out.T
        for k, (s, a) in enumerate(zip(plan["slots"], gradient)):  # a_k w_k
            if a is None:  # no group reads entry k
                gT[s] = 0.0
            elif shape is None:
                gT[s] = _times(a, v, (w[k],), None)
            else:
                _times(a, v, (w[k],), gT[s])

    def write_hessian(self, z, out):
        """Write the terms' hessian into every entry of out."""
        plan, w, shape, v, formulas = self._start(z, "hessian")
        slots, hT, d = plan["slots"], out.T, len(w)
        for s, (const, terms) in zip(slots, formulas[:d]):  # a + b w_k^2
            if shape is None or not terms:
                hT[s + s] = _combine(const, terms, v, None)
            else:
                _combine(const, terms, v, hT[s + s])
        for (k, m), b in zip(plan["pairs"], formulas[d:]):  # b w_k w_m on both sides
            sk, sm = slots[k], slots[m]
            if b is None:
                hT[sk + sm] = 0.0
            elif shape is None:
                hT[sk + sm] = _times(b, v, (w[k], w[m]), None)
            else:
                _times(b, v, (w[k], w[m]), hT[sk + sm])
            hT[sm + sk] = hT[sk + sm]


def _flatten(F, c, radial, others):
    """Collect the terms of F, weighted by c, through nested sums and scalings:
    (column, c, mu^2, p) for each power norm (column None) and axis power into
    `radial`, (c, term) for every other term into `others`."""
    if isinstance(F, Sum):
        for P in F.parts:
            _flatten(P, c, radial, others)
    elif isinstance(F, Scaled):
        _flatten(F.inner, c * F.coeff, radial, others)
    elif isinstance(F, PowerNorm):
        radial.append((None, c, F.mu * F.mu, F.p))
    elif isinstance(F, AxisPower):
        radial.append((F.i, c, 0.0, F.q))
    else:
        others.append((c, F))


class _Tabled(Integrand):
    """An integrand built from power norms and axis powers by sums and
    scalings: its radial terms are one _Table, built once.  Any other terms
    (c, F) add c F(z) through their hooks into an output of their own, which is
    added to the table's once: each sum then keeps the order of its own
    additions."""

    def _tabulate(self):
        radial, self._others = [], []
        _flatten(self, 1.0, radial, self._others)
        self._table = _Table(radial)

    def value(self, z):
        z = _as_batch(z)
        if not self._others:
            return self._table.value(z)
        rest = sum(c * F.value(z) for c, F in self._others)
        return self._table.value(z) + rest if self._table.groups else rest

    def _derivative(self, z, alloc, write, hook):
        out = alloc(z)
        if not self._others:
            write(z, out)
            return out
        out[...] = 0.0
        for c, F in self._others:
            getattr(F, hook)(z, out, c)
        if self._table.groups:
            table = alloc(z)
            write(z, table)
            out += table
        return out

    def gradient(self, z):
        z = _as_batch(z)
        return self._derivative(z, _gradient_out, self._table.write_gradient, "_add_gradient")

    def hessian(self, z):
        z = _as_batch(z)
        return self._derivative(z, _hessian_out, self._table.write_hessian, "_add_hessian")


@dataclass
class PowerNorm(_Tabled):
    """z -> ell_mu(z)^p = (mu^2 + |z|^2)^(p/2), p >= 2, mu in [0, 1].  The hessian
    p t^{(p-2)/2} Id + p(p-2) t^{(p-4)/2} z (x) z takes the analytic limit 0 at
    the degenerate corner mu = 0, z = 0, p > 2."""

    mu: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if self.p < 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")
        self._tabulate()

    def growth_exponents(self):
        return (self.p, self.p)


@dataclass
class AxisPower(_Tabled):
    """z -> |z e_i|^q: the q-th power of the i-th column (1-based partial-derivative slot)."""

    i: int
    q: float

    def __post_init__(self):
        if self.i < 1 or int(self.i) != self.i:
            raise ValueError(f"axis index must be a 1-based integer, got {self.i}")
        if self.q < 2.0:
            raise ValueError(f"axis exponent must be >= 2, got {self.q}")
        self._tabulate()

    def growth_exponents(self):
        return (self.q, self.q)


def _monomial(w, c, a):
    """c z^a for the entries w of z and their exponents a.  Each power is a run of
    products: numpy's vector power is not exactly even in its last bit, while
    (-x)(-x)(-x)(-x) is x x x x to the bit."""
    out = c
    for x, e in zip(w, a):
        for _ in range(e):
            out = out * x
    return out


def _lowered(a, k):
    """The exponents a with a_k lowered by one."""
    return a[:k] + (a[k] - 1,) + a[k + 1:]


@dataclass
class HomogeneousForm(_Accumulating):
    """Degree-s homogeneous form sum c z^a, stored as its monomials: (c, a) pairs,
    where a gives the exponents of the d = N*n flat entries of z, row-major over
    (N, n), and sums to s.

    As in _Table, the entries are read through their slots, so the Python loops
    run over the few monomials and entries while every numpy operation is a
    vector op over the batch, and memory follows the batch.  The derivative of
    c z^a along entry k is (c a_k) z^(a - e_k), taken only where a_k > 0."""

    N: int
    n: int
    degree: int
    monomials: tuple

    def __post_init__(self):
        d = self.N * self.n
        if self.degree < 0:
            raise ValueError(f"homogeneous degree must be nonnegative, got {self.degree}")
        self.monomials = tuple((float(c), tuple(a)) for c, a in self.monomials)
        for c, a in self.monomials:
            if not math.isfinite(c):
                raise ValueError(f"monomial coefficient must be finite, got {c}")
            if len(a) != d or min(a) < 0 or sum(a) != self.degree:
                raise ValueError(f"exponents {a} are not those of a degree-{self.degree} "
                                 f"monomial in d = {d} entries")

    @classmethod
    def from_terms(cls, N, n, degree, terms):
        """Build from monomials: terms is a list of (coeff, flat_indices) with 1-based flat
        indices into z laid out row-major over (N, n), so (1, 1, 2) is z_1^2 z_2.  Like
        terms are combined, and zero coefficients are dropped."""
        d = N * n
        combined = {}
        for coeff, idx in terms:
            idx = tuple(int(k) for k in idx)
            if len(idx) != degree:
                raise ValueError(f"monomial {idx} has {len(idx)} factors, expected degree {degree}")
            if any(k < 1 or k > d for k in idx):
                raise ValueError(f"monomial index out of range in {idx} (d = {d})")
            a = tuple(idx.count(k) for k in range(1, d + 1))
            combined[a] = combined.get(a, 0.0) + float(coeff)
        return cls(N, n, degree, tuple((c, a) for a, c in combined.items() if c != 0.0))

    def _entries(self, z):
        z = _as_batch(z)
        if z.shape[-2:] != (self.N, self.n):
            raise ShapeMismatchError(
                f"z has shape {z.shape[-2:]}, form was built for (N, n) = ({self.N}, {self.n})")
        zT = z.T
        return [zT[s] for s in _slots(self.N, self.n)]

    def value(self, z):
        w = self._entries(z)
        return sum((_monomial(w, c, a) for c, a in self.monomials), np.zeros(np.shape(w[0]))).T

    def _add_gradient(self, z, out, c):
        w, gT = self._entries(z), out.T
        for b, a in self.monomials:
            for k, s in enumerate(_slots(self.N, self.n)):
                if a[k]:
                    gT[s] += _monomial(w, c * b * a[k], _lowered(a, k))

    def _add_hessian(self, z, out, c):
        w, hT, slots = self._entries(z), out.T, _slots(self.N, self.n)
        for b, a in self.monomials:
            for k, s in enumerate(slots):
                if not a[k]:
                    continue
                ak = _lowered(a, k)
                for m in range(k, len(slots)):
                    if ak[m]:
                        e = _monomial(w, c * b * a[k] * ak[m], _lowered(ak, m))
                        hT[s + slots[m]] += e
                        if m > k:
                            hT[slots[m] + s] += e


@dataclass
class Sum(_Tabled):
    """The sum of its parts, which are read once, when the Sum is built."""

    parts: list

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Sum of integrands must be non-empty")
        self._tabulate()

    def growth_exponents(self):
        lo = min(p.growth_exponents()[0] for p in self.parts)
        hi = max(p.growth_exponents()[1] for p in self.parts)
        return (lo, hi)


@dataclass
class Scaled(_Tabled):
    coeff: float
    inner: Integrand

    def __post_init__(self):
        if not (self.coeff >= 0.0 and math.isfinite(self.coeff)):
            raise ValueError(f"scaling coefficient must be finite and >= 0, got {self.coeff}")
        self._tabulate()

    def growth_exponents(self):
        return self.inner.growth_exponents()


class EvenPolynomial(Sum):
    """Polynomial given by homogeneous components, the parts of a Sum in increasing
    degree; evenness is enforced at certification time
    (growth.homogeneous_decomposition), not at construction."""

    def __init__(self, components):
        if not components:
            raise ValueError("EvenPolynomial needs at least one homogeneous component")
        shapes = {(c.N, c.n) for c in components}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"components disagree on (N, n): {shapes}")
        (self.N, self.n), = shapes
        super().__init__(sorted(components, key=lambda c: c.degree))

    @property
    def components(self):
        return self.parts

    def growth_exponents(self):
        degs = [c.degree for c in self.components if c.degree > 0]
        if not degs:
            return (2.0, 2.0)
        return (float(min(degs)), float(max(degs)))

    @property
    def degree(self):
        return max(c.degree for c in self.components)


# --------------------------------------------------------------------- derivative check


def fd_check(F: Integrand, z, h: float) -> dict:
    """Max-norm gap between analytic derivatives and central finite differences.

    grad_err compares gradient(z) against differences of value; hess_err compares
    hessian(z) against differences of gradient.
    """
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    z = np.asarray(z, dtype=float)
    N, n = z.shape[-2:]
    grad_fd = np.zeros_like(z)
    hess_fd = np.zeros(z.shape + (N, n))
    for i in range(N):
        for j in range(n):
            dz = np.zeros_like(z)
            dz[..., i, j] = h
            grad_fd[..., i, j] = (F.value(z + dz) - F.value(z - dz)) / (2 * h)
            hess_fd[..., i, j, :, :] = (F.gradient(z + dz) - F.gradient(z - dz)) / (2 * h)
    grad_err = np.abs(grad_fd - F.gradient(z)).max()
    hess_err = np.abs(np.moveaxis(hess_fd, (-2, -1), (-4, -3)) - F.hessian(z)).max()
    return {"grad_err": float(grad_err), "hess_err": float(hess_err)}

