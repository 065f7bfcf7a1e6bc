"""Forward-mode automatic differentiation carrying gradient and Hessian.

``Dual`` propagates a value and its gradient with respect to d seed
directions: values may be scalars or numpy arrays of any batch shape S, and
grads have shape S+(d,), so whole grids differentiate in one sweep.
``Dual2`` additionally propagates the Hessian, the collapsed form of nesting
first-order duals, and tracks its support: the sorted tuple ``idx`` of the
s seed directions the value depends on, with the grad of shape S+(s,) and
the Hessian S+(s, s).  ``Dual2.dense(d)`` reads them back over all d
directions.

Lagrangians and constraints are written against the generic helpers here
(sin, cos, exp, ... , det) so the same code runs on floats and on duals.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import InvalidArgumentError


class Dual:
    """First-order forward value: f and gradient df (batch..., d)."""

    __slots__ = ("val", "grad")
    __array_priority__ = 100  # so ndarray * Dual defers to Dual.__rmul__

    def __init__(self, val, grad):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, values, d, index=None):
        """Lift values to a Dual; seeds direction ``index`` when given."""
        values = np.asarray(values, dtype=float)
        grad = np.zeros(values.shape + (d,))
        if index is not None:
            grad[..., index] = 1.0
        return cls(values, grad)

    def _lift(self, other):
        if isinstance(other, Dual):
            return other
        return Dual(np.asarray(other, dtype=float), np.zeros_like(self.grad))

    def __add__(self, o):
        o = self._lift(o)
        return Dual(self.val + o.val, self.grad + o.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def __sub__(self, o):
        o = self._lift(o)
        return Dual(self.val - o.val, self.grad - o.grad)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return Dual(
            self.val * o.val,
            self.val[..., None] * o.grad + o.val[..., None] * self.grad,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        inv = 1.0 / o.val
        val = self.val / o.val  # the bits of the plain quotient, not self.val * inv
        return Dual(val, inv[..., None] * (self.grad - val[..., None] * o.grad))

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise InvalidArgumentError("dual powers support numeric exponents only")
        val = self.val**p
        return Dual(val, (p * self.val ** (p - 1))[..., None] * self.grad)

    def __repr__(self):
        return f"Dual(val={self.val!r})"


@functools.cache
def _placement(sub: tuple, sup: tuple):
    """Where the directions of support ``sub`` sit inside support ``sup``:
    None (the same support), a slice (a contiguous run), or the positions
    with their flat (s*s) Hessian indices."""
    if sub == sup:
        return None
    pos = np.searchsorted(sup, sub).astype(np.intp)
    if sub and pos[-1] - pos[0] == len(sub) - 1:
        return slice(int(pos[0]), int(pos[-1]) + 1)
    return pos, (pos[:, None] * len(sup) + pos).ravel()


@functools.cache
def _union(a: tuple, b: tuple):
    """The union of two supports and the placement of each in it."""
    union = tuple(sorted(set(a) | set(b)))
    return union, _placement(a, union), _placement(b, union)


def _embed(grad, hess, place, s):
    """grad (..., k) and hess (..., k, k) written into exact zeros of size s
    at ``place``."""
    if place is None:
        return grad, hess
    g = np.zeros(grad.shape[:-1] + (s,))
    h = np.zeros(hess.shape[:-2] + (s, s))
    if isinstance(place, slice):
        g[..., place] = grad
        h[..., place, place] = hess
    else:
        pos, flat = place
        g[..., pos] = grad
        h.reshape(h.shape[:-2] + (s * s,))[..., flat] = hess.reshape(
            hess.shape[:-2] + (-1,))
    return g, h


def _common(a: Dual2, b: Dual2):
    """The grads and Hessians of a and b over the union of their supports,
    and that union."""
    if a.idx == b.idx:
        return a.grad, a.hess, b.grad, b.hess, a.idx
    union, pa, pb = _union(a.idx, b.idx)
    s = len(union)
    return (*_embed(a.grad, a.hess, pa, s), *_embed(b.grad, b.hess, pb, s), union)


class Dual2:
    """Second-order forward value: f, gradient, and Hessian over its support.

    ``idx`` is the sorted tuple of seed directions the value depends on;
    ``grad`` has shape S+(s,) and ``hess`` S+(s, s) with s = len(idx), so a
    temporary carries only the directions it touches.  A binary operation
    writes both operands into exact zeros over the union of their supports
    and applies the dense formulas there.  Every entry therefore has the
    bits the full (d, d) propagation gives it, except that an exact zero may
    carry the other sign.  :meth:`dense` reads the result back over all d
    directions.
    """

    __slots__ = ("val", "grad", "hess", "idx")
    __array_priority__ = 100

    def __init__(self, val, grad, hess, idx):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.idx = idx

    @classmethod
    def seed(cls, values, d, index=None):
        """Lift values to a Dual2 with support ``(index,)``, or a constant
        (support ``()``) when no index is given."""
        if index is None:
            return cls._constant(values)
        values = np.asarray(values, dtype=float)
        if not 0 <= index < d:
            raise InvalidArgumentError(f"seed direction {index} is not in 0..{d - 1}")
        return cls(values, np.ones(values.shape + (1,)),
                   np.zeros(values.shape + (1, 1)), (int(index),))

    @classmethod
    def _constant(cls, values):
        values = np.asarray(values, dtype=float)
        return cls(values, np.zeros(values.shape + (0,)),
                   np.zeros(values.shape + (0, 0)), ())

    def dense(self, d):
        """(grad (..., d), hess (..., d, d)) over the seed directions 0..d-1,
        exact zeros off the support."""
        return _embed(self.grad, self.hess, _placement(self.idx, tuple(range(d))), d)

    def __add__(self, o):
        if not isinstance(o, Dual2):
            # + 0.0 turns a -0.0 into 0.0, as adding a lifted zero did
            return Dual2(self.val + o, self.grad + 0.0, self.hess + 0.0, self.idx)
        g1, h1, g2, h2, idx = _common(self, o)
        return Dual2(self.val + o.val, g1 + g2, h1 + h2, idx)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess, self.idx)

    def __sub__(self, o):
        if not isinstance(o, Dual2):
            # g - 0.0 has the bits of g, so the arrays are shared
            return Dual2(self.val - o, self.grad, self.hess, self.idx)
        g1, h1, g2, h2, idx = _common(self, o)
        return Dual2(self.val - o.val, g1 - g2, h1 - h2, idx)

    def __rsub__(self, o):
        return Dual2(o - self.val, 0.0 - self.grad, 0.0 - self.hess, self.idx)

    def __mul__(self, o):
        if not isinstance(o, Dual2):  # cheap scalar/array path
            o = np.asarray(o, dtype=float)
            return Dual2(
                self.val * o,
                self.grad * o[..., None],
                self.hess * o[..., None, None],
                self.idx,
            )
        g1, h1, g2, h2, idx = _common(self, o)
        cross = g1[..., :, None] * g2[..., None, :]
        # in place, but summed in the dense order, so with the dense bits
        hess = self.val[..., None, None] * h2 + o.val[..., None, None] * h1
        hess += cross
        hess += np.swapaxes(cross, -1, -2)
        return Dual2(
            self.val * o.val,
            self.val[..., None] * g2 + o.val[..., None] * g1,
            hess,
            idx,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual2):
            return self * o._chain(1.0 / o.val, -1.0 / o.val**2, 2.0 / o.val**3)
        return self * (1.0 / np.asarray(o, dtype=float))

    def __rtruediv__(self, o):
        return self._constant(o) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise InvalidArgumentError("dual powers support numeric exponents only")
        return self._chain(
            self.val**p,
            p * self.val ** (p - 1),
            p * (p - 1) * self.val ** (p - 2),
        )

    def _chain(self, f, df, d2f):
        """Compose with a scalar map given f, f', f'' at self.val."""
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return Dual2(
            f,
            df[..., None] * self.grad,
            df[..., None, None] * self.hess + d2f[..., None, None] * outer,
            self.idx,
        )

    def __repr__(self):
        return f"Dual2(val={self.val!r}, idx={self.idx!r})"


def _chain1(x: Dual, f, df):
    return Dual(f, df[..., None] * x.grad)


def _unary(x, f, df, d2f):
    if isinstance(x, Dual2):
        return x._chain(f(x.val), df(x.val), d2f(x.val))
    if isinstance(x, Dual):
        return _chain1(x, f(x.val), df(x.val))
    return f(np.asarray(x, dtype=float))


def sin(x):
    return _unary(x, np.sin, np.cos, lambda v: -np.sin(v))


def cos(x):
    return _unary(x, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v))


def exp(x):
    return _unary(x, np.exp, np.exp, np.exp)


def log(x):
    return _unary(x, np.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2)


def sqrt(x):
    return _unary(
        x,
        np.sqrt,
        lambda v: 0.5 / np.sqrt(v),
        lambda v: -0.25 / np.sqrt(v) ** 3,
    )


def det(matrix):
    """Determinant of a small square matrix of generic scalars.

    ``matrix`` is a nested list (rows of entries); entries may be floats,
    arrays, or duals.  Cofactor expansion along the first row keeps the
    operation generic; intended for the small fiber dimensions used here.
    """
    rows = [list(r) for r in matrix]
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise InvalidArgumentError("det expects a square nested list")
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if size == 3:
        # hand expansion shares the three 2x2 minors
        m0 = rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]
        m1 = rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0]
        m2 = rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]
        return rows[0][0] * m0 - rows[0][1] * m1 + rows[0][2] * m2
    total = None
    for j in range(size):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total
