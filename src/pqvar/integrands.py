"""The integrand family: power norms, axis powers, even polynomials, sums, scalings.

All evaluations are batched: a gradient variable argument `z` may have shape
(N, n) or (..., N, n); values come back with the batch shape, gradients with
shape (..., N, n), and hessians as bilinear forms of shape (..., N, n, N, n).
Every formula is the exact analytic derivative, so finite differences of
`value` must reproduce `gradient` at rate O(h^2) (see `fd_check`).
"""

import functools
import itertools
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
    """View a (..., N, n, N, n) bilinear form as (..., N*n, N*n) matrices."""
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


class _Accumulating(Integrand):
    """An integrand whose derivatives are its hooks: the public gradient and
    hessian allocate one zeroed output and add into it with c = 1."""

    def gradient(self, z):
        z = _as_batch(z)
        out = np.zeros(z.shape)
        self._add_gradient(z, out, 1.0)
        return out

    def hessian(self, z):
        z = _as_batch(z)
        out = np.zeros(z.shape + z.shape[-2:])
        self._add_hessian(z, out, 1.0)
        return out


def _first_factor(t, p):
    """a = p t^((p-2)/2), so that the gradient is a w.  At t = 0 the power gives
    the analytic limit: 2 for p = 2, 0 for p > 2."""
    return p if p == 2.0 else p * t ** ((p - 2.0) / 2.0)


def _second_factor(t, p):
    """b = p (p-2) t^((p-4)/2), so that the hessian is a Id + b w (x) w; None for
    p = 2.  Below p = 4 the power is taken only where t > 0, and b is 0 at
    t = 0, where w = 0 anyway."""
    if p == 2.0:
        return None
    e = (p - 4.0) / 2.0
    if e >= 0.0:
        return p * (p - 2.0) * t ** e
    b = np.zeros_like(t)
    np.power(t, e, out=b, where=t > 0.0)
    return p * (p - 2.0) * b


class _Radial(_Accumulating):
    """A radial term t^(p/2), where t = mu^2 + |w|^2 for a list w of entries of
    z: all of them for a power norm, one column for an axis power.  Subclasses
    return (t, p, slots, w) from _radial(z).

    Entries are addressed by their slots (see _slots) in z.T and out.T, so the
    Python loops run over the few (N, n) entries while every numpy operation is
    a vector op over the whole batch, or a scalar op on a single point; t comes
    with its batch axes reversed, as in z.T."""

    def _add_gradient(self, z, out, c):
        t, p, slots, w = self._radial(z)
        a = _first_factor(t, p)
        gT = out.T
        for s, x in zip(slots, w):
            gT[s] += c * (a * x)

    def _add_hessian(self, z, out, c):
        # c (a Id + b w (x) w) on the slots x slots entries
        t, p, slots, w = self._radial(z)
        a, b = _first_factor(t, p), _second_factor(t, p)
        hT = out.T
        if b is None:
            for s in slots:
                hT[s + s] += c * a
            return
        for k, s in enumerate(slots):
            hT[s + s] += c * (a + b * (w[k] * w[k]))
            for m in range(k + 1, len(slots)):
                e = c * (b * (w[k] * w[m]))
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
        return self.mu ** 2 + _square_sum(w), self.p, slots, w

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

    def growth_exponents(self):
        return (self.q, self.q)


@dataclass
class HomogeneousForm:
    """Degree-s homogeneous form stored as a dense symmetric coefficient tensor.

    The tensor C has shape (d,)*s with d = N*n and the form evaluates by
    repeated contraction: P_s(z) = C[z, ..., z].  Memory grows like d^s, so the
    degree is capped at 10 and d should stay small.
    """

    N: int
    n: int
    degree: int
    tensor: np.ndarray

    MAX_DEGREE = 10

    def __post_init__(self):
        d = self.N * self.n
        if self.degree < 0 or self.degree > self.MAX_DEGREE:
            raise ValueError(f"homogeneous degree must lie in [0, {self.MAX_DEGREE}], got {self.degree}")
        expected = (d,) * self.degree
        self.tensor = np.asarray(self.tensor, dtype=float)
        if self.tensor.shape != expected:
            raise ShapeMismatchError(
                f"coefficient tensor shape {self.tensor.shape} does not match (d,)*s = {expected}")

    @classmethod
    def from_terms(cls, N, n, degree, terms):
        """Build from monomials: terms is a list of (coeff, flat_indices) with 1-based flat
        indices into z laid out row-major over (N, n); the tensor is symmetrized."""
        d = N * n
        C = np.zeros((d,) * degree) if degree > 0 else np.zeros(())
        for coeff, idx in terms:
            idx = tuple(int(k) - 1 for k in idx)
            if len(idx) != degree:
                raise ValueError(f"monomial {idx} has {len(idx)} factors, expected degree {degree}")
            if any(k < 0 or k >= d for k in idx):
                raise ValueError(f"monomial index out of range in {idx} (d = {d})")
            if degree == 0:
                C += coeff
                continue
            perms = set(itertools.permutations(idx))
            for perm in perms:
                C[perm] += coeff / len(perms)
        return cls(N, n, degree, C)

    def _check(self, z):
        z = _as_batch(z)
        if z.shape[-2:] != (self.N, self.n):
            raise ShapeMismatchError(
                f"z has shape {z.shape[-2:]}, form was built for (N, n) = ({self.N}, {self.n})")
        return z.reshape(z.shape[:-2] + (self.N * self.n,))

    def _reduce(self, zf, leave):
        """Contract all but `leave` slots with zf; result has shape batch + (d,)*leave."""
        s = self.degree
        if s - leave <= 0:
            return self.tensor
        A = np.tensordot(self.tensor, zf, axes=([s - 1], [-1]))
        # A: (d,)*(s-1) + batch ; move batch axes to the front
        batch_nd = zf.ndim - 1
        A = np.moveaxis(A, tuple(range(s - 1, s - 1 + batch_nd)), tuple(range(batch_nd)))
        for _ in range(s - 1 - leave):
            A = np.einsum("...i,...i->...", A, _expand(zf, A.ndim - batch_nd))
        return A

    def value(self, z):
        zf = self._check(z)
        if self.degree == 0:
            return np.broadcast_to(self.tensor, zf.shape[:-1]).copy()
        A = self._reduce(zf, 0)
        return A

    def gradient(self, z):
        zf = self._check(z)
        batch = zf.shape[:-1]
        if self.degree == 0:
            return np.zeros(batch + (self.N, self.n))
        A = self._reduce(zf, 1)  # batch + (d,)
        A = np.broadcast_to(A, batch + (self.N * self.n,)) if A.ndim < len(batch) + 1 else A
        return (self.degree * A).reshape(batch + (self.N, self.n))

    def hessian(self, z):
        zf = self._check(z)
        batch = zf.shape[:-1]
        d = self.N * self.n
        if self.degree < 2:
            return np.zeros(batch + (self.N, self.n, self.N, self.n))
        A = self._reduce(zf, 2)  # batch + (d, d) (or (d, d) for degree 2)
        A = np.broadcast_to(A, batch + (d, d))
        return (self.degree * (self.degree - 1) * A).reshape(batch + (self.N, self.n, self.N, self.n))


def _expand(zf, tensor_axes_left):
    """Align zf (..., d) against an array carrying `tensor_axes_left` trailing tensor axes."""
    out = zf
    for _ in range(tensor_axes_left - 1):
        out = out[..., None, :]
    return out


@dataclass
class EvenPolynomial(Integrand):
    """Polynomial given by homogeneous components; evenness is enforced at certification
    time (growth.homogeneous_decomposition), not at construction."""

    components: list

    def __post_init__(self):
        if not self.components:
            raise ValueError("EvenPolynomial needs at least one homogeneous component")
        shapes = {(c.N, c.n) for c in self.components}
        if len(shapes) != 1:
            raise ShapeMismatchError(f"components disagree on (N, n): {shapes}")
        (self.N, self.n), = shapes
        self.components = sorted(self.components, key=lambda c: c.degree)

    def value(self, z):
        return sum(c.value(z) for c in self.components)

    def gradient(self, z):
        return sum(c.gradient(z) for c in self.components)

    def hessian(self, z):
        return sum(c.hessian(z) for c in self.components)

    def growth_exponents(self):
        degs = [c.degree for c in self.components if c.degree > 0]
        if not degs:
            return (2.0, 2.0)
        return (float(min(degs)), float(max(degs)))

    @property
    def degree(self):
        return max(c.degree for c in self.components)


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
        """Returns L, l_alpha, and the chain-rule scalar g with (l_alpha)'(z) = g * z."""
        r = self.regime
        z = np.asarray(z, dtype=float)
        ell2 = r.mu ** 2 + frob2(z)
        L = ell2 ** (r.p / 2.0)
        l_alpha = L ** ((self.alpha + 2.0) / 2.0) + 1.0
        pos = ell2 > 0.0
        safe = np.where(pos, ell2, 1.0)
        # d l_alpha / dz = ((alpha+2)/2) L^{alpha/2} * p ell^{p-2} * z
        g = ((self.alpha + 2.0) / 2.0) * np.where(pos, L, 0.0) ** (self.alpha / 2.0) \
            * r.p * safe ** ((r.p - 2.0) / 2.0)
        g = np.where(pos, g, 0.0)
        return {"L": L, "l_alpha": l_alpha, "grad_factor": g}
