"""The integrand family: power norms, axis powers, even polynomials, sums, scalings.

All evaluations are batched: a gradient variable argument `z` may have shape
(N, n) or (..., N, n); values come back with the batch shape, gradients with
shape (..., N, n), and hessians as bilinear forms of shape (..., N, n, N, n).
Every formula is the exact analytic derivative, so finite differences of
`value` must reproduce `gradient` at rate O(h^2) (see `fd_check`).

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

from .model import Regime, ShapeMismatchError


def frob2(z):
    """Squared Frobenius norm over the trailing (N, n) axes.

    The squared entries are added one at a time in row-major order, each a
    vector op over the batch: numpy would reduce the trailing axes with inner
    loops of length N*n.  For N*n < 8 the order is numpy's own, so the result
    is bit-identical to (z * z).sum(axis=(-2, -1))."""
    zT = np.asarray(z, dtype=float).T
    return _square_sum([zT[s] for s in _slots(*zT.shape[1::-1])]).T


@functools.lru_cache(maxsize=32)
def _slots(N, n):
    """The (j, i) index of every entry z[..., i, j] into the transpose z.T, in
    row-major order of (i, j).  Indexing z.T puts the entry axes first, so one
    entry is a batch vector, or a numpy scalar when z is a single point."""
    return tuple((j, i) for i in range(N) for j in range(n))


def _square_sum(w):
    out = w[0] * w[0]
    for x in w[1:]:
        out += x * x
    return out


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

    Sums and scalings accumulate derivatives through the private hooks
    _add_gradient(z, out, c) and _add_hessian(z, out, c), which add c F'(z) or
    c F''(z) into a buffer the caller owns.  The defaults go through the public
    methods, so an integrand that defines only value, gradient and hessian works
    inside a Sum unchanged."""

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


def _entry_major_zeros(entries, batch, axes):
    """Zeros of logical shape batch + entries[axes], stored with the entry axes
    first in memory, in the order of `entries`, and the batch axes last."""
    out = np.zeros(entries + batch)
    return out.transpose(tuple(range(len(entries), out.ndim)) + axes)


class _Accumulating(Integrand):
    """An integrand whose derivatives are its hooks: the public gradient and
    hessian allocate one zeroed output, entry-major for a batch and C-ordered
    for a single point, and add into it with c = 1."""

    def gradient(self, z):
        z = _as_batch(z)
        if z.ndim == 2:
            out = np.zeros(z.shape)
        else:
            out = _entry_major_zeros(z.shape[-2:], z.shape[:-2], (0, 1))
        self._add_gradient(z, out, 1.0)
        return out

    def hessian(self, z):
        z = _as_batch(z)
        N, n = z.shape[-2:]
        if z.ndim == 2:
            out = np.zeros((N, n, N, n))
        else:  # memory order (i, j, k, l, batch) for the entry H[..., i, k, j, l]
            out = _entry_major_zeros((N, N, n, n), z.shape[:-2], (0, 2, 1, 3))
        self._add_hessian(z, out, 1.0)
        return out


def _first_factor(t, p):
    """a = p t^((p-2)/2), so that the gradient is a w.  At t = 0 the power gives
    the analytic limit: 2 for p = 2, 0 for p > 2."""
    return p if p == 2.0 else p * t ** ((p - 2.0) / 2.0)


def _second_factor(t, p):
    """b = p (p-2) t^((p-4)/2), so that the hessian is a Id + b w (x) w; None for
    p = 2, and the number p (p-2) = 8 for p = 4, where it does not depend on t.
    Below p = 4 the power is taken only where t > 0, and b is 0 at t = 0, where
    w = 0 anyway."""
    if p == 2.0:
        return None
    e = (p - 4.0) / 2.0
    if e == 0.0:
        return p * (p - 2.0)
    if e > 0.0:
        return p * (p - 2.0) * t ** e
    b = np.zeros_like(t)
    np.power(t, e, out=b, where=t > 0.0)
    return p * (p - 2.0) * b


class _Radial(_Accumulating):
    """A radial term t^(p/2), where t = mu^2 + |w|^2 for a list w of entries of
    z: all of them for a power norm, one column for an axis power.  Subclasses
    return (t, p, slots, w) from _radial(z); t may be None when p = 2, where no
    factor depends on it.

    Entries are addressed by their slots (see _slots) in z.T and out.T, so the
    Python loops run over the few (N, n) entries while every numpy operation is
    a vector op over the whole batch, or a scalar op on a single point; t comes
    with its batch axes reversed, as in z.T.  The factors a and b (see
    _first_factor and _second_factor) are plain numbers when they do not depend
    on t: a = 2 for p = 2, b = 8 for p = 4.  The weight c is applied to them
    once, before they meet the batch vectors."""

    def _add_gradient(self, z, out, c):
        t, p, slots, w = self._radial(z)
        ca = c * _first_factor(t, p)
        gT = out.T
        for s, x in zip(slots, w):
            gT[s] += ca * x

    def _add_hessian(self, z, out, c):
        # c (a Id + b w (x) w) on the slots x slots entries
        t, p, slots, w = self._radial(z)
        ca, b = c * _first_factor(t, p), _second_factor(t, p)
        hT = out.T
        if b is None:
            for s in slots:
                hT[s + s] += ca
            return
        cb = c * b
        for k, s in enumerate(slots):
            cbw = cb * w[k]
            hT[s + s] += ca + cbw * w[k]
            for m in range(k + 1, len(slots)):
                e = cbw * w[m]
                hT[s + slots[m]] += e
                hT[slots[m] + s] += e


@dataclass
class PowerNorm(_Radial):
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

    def value(self, z):
        z = _as_batch(z)
        return (self.mu ** 2 + frob2(z)) ** (self.p / 2.0)

    def _radial(self, z):
        slots = _slots(*z.shape[-2:])
        zT = z.T
        w = [zT[s] for s in slots]
        t = None if self.p == 2.0 else self.mu ** 2 + _square_sum(w)
        return t, self.p, slots, w

    def growth_exponents(self):
        return (self.p, self.p)


@dataclass
class AxisPower(_Radial):
    """z -> |z e_i|^q: the q-th power of the i-th column (1-based partial-derivative slot)."""

    i: int
    q: float

    def __post_init__(self):
        if self.i < 1 or int(self.i) != self.i:
            raise ValueError(f"axis index must be a 1-based integer, got {self.i}")
        if self.q < 2.0:
            raise ValueError(f"axis exponent must be >= 2, got {self.q}")

    def _radial(self, z):
        N, n = z.shape[-2:]
        if self.i > n:
            raise ShapeMismatchError(
                f"axis index i={self.i} exceeds the number of columns n={n}")
        slots = _slots(N, n)[self.i - 1::n]
        zT = z.T
        w = [zT[s] for s in slots]
        return _square_sum(w), self.q, slots, w

    def value(self, z):
        r2, q, _, _ = self._radial(_as_batch(z))
        return (r2 ** (q / 2.0)).T

    def _add_hessian(self, z, out, c):
        if z.shape[-2] > 1:
            super()._add_hessian(z, out, c)
            return
        # one slot, where t = w^2: a + b w^2 = (q - 1) a on the single diagonal entry
        t, q, (s,), _ = self._radial(z)
        out.T[s + s] += (c * (q - 1.0)) * _first_factor(t, q)

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

    As in _Radial, the entries are read through their slots, so the Python loops
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
class Sum(_Accumulating):
    parts: list

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Sum of integrands must be non-empty")

    def value(self, z):
        return sum(p.value(z) for p in self.parts)

    def _add_gradient(self, z, out, c):
        for p in self.parts:
            p._add_gradient(z, out, c)

    def _add_hessian(self, z, out, c):
        for p in self.parts:
            p._add_hessian(z, out, c)

    def growth_exponents(self):
        lo = min(p.growth_exponents()[0] for p in self.parts)
        hi = max(p.growth_exponents()[1] for p in self.parts)
        return (lo, hi)


@dataclass
class Scaled(_Accumulating):
    coeff: float
    inner: Integrand

    def __post_init__(self):
        if not (self.coeff >= 0.0 and math.isfinite(self.coeff)):
            raise ValueError(f"scaling coefficient must be finite and >= 0, got {self.coeff}")

    def value(self, z):
        return self.coeff * self.inner.value(z)

    def _add_gradient(self, z, out, c):
        self.inner._add_gradient(z, out, c * self.coeff)

    def _add_hessian(self, z, out, c):
        self.inner._add_hessian(z, out, c * self.coeff)

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


# --------------------------------------------------------------------------- weights


@dataclass
class MoserWeight:
    """Weight pair L(z) = ell_mu(z)^p and l_alpha(z) = L(z)^((alpha+2)/2) + 1."""

    regime: Regime
    alpha: float

    def __post_init__(self):
        if self.alpha < -1.0:
            raise ValueError(f"alpha must be >= -1, got {self.alpha}")

    def eval(self, z) -> dict:
        """Returns L and l_alpha at z."""
        r = self.regime
        z = np.asarray(z, dtype=float)
        L = (r.mu ** 2 + frob2(z)) ** (r.p / 2.0)
        return {"L": L, "l_alpha": L ** ((self.alpha + 2.0) / 2.0) + 1.0}
