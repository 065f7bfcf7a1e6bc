"""Forward-mode automatic differentiation carrying gradient and Hessian.

``Dual`` propagates a value and its gradient with respect to d seed
directions; ``Dual2`` additionally propagates the full (d, d) Hessian, which
is the collapsed form of nesting first-order duals.  Values may be scalars
or numpy arrays of any batch shape S: grads have shape S+(d,) and Hessians
S+(d, d), so whole grids differentiate in one sweep.

Lagrangians and constraints are written against the generic helpers here
(sin, cos, exp, ... , det) so the same code runs on floats and on duals.
"""

from __future__ import annotations

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
        val = self.val * inv
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


class Dual2:
    """Second-order forward value: f, gradient, and Hessian."""

    __slots__ = ("val", "grad", "hess")
    __array_priority__ = 100

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def seed(cls, values, d, index=None):
        values = np.asarray(values, dtype=float)
        grad = np.zeros(values.shape + (d,))
        if index is not None:
            grad[..., index] = 1.0
        return cls(values, grad, np.zeros(values.shape + (d, d)))

    def _lift(self, other):
        if isinstance(other, Dual2):
            return other
        return Dual2(
            np.asarray(other, dtype=float),
            np.zeros_like(self.grad),
            np.zeros_like(self.hess),
        )

    def __add__(self, o):
        o = self._lift(o)
        return Dual2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess)

    def __sub__(self, o):
        o = self._lift(o)
        return Dual2(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        if not isinstance(o, Dual2):  # cheap scalar/array path
            o = np.asarray(o, dtype=float)
            return Dual2(
                self.val * o,
                self.grad * o[..., None],
                self.hess * o[..., None, None],
            )
        cross = self.grad[..., :, None] * o.grad[..., None, :]
        return Dual2(
            self.val * o.val,
            self.val[..., None] * o.grad + o.val[..., None] * self.grad,
            self.val[..., None, None] * o.hess
            + o.val[..., None, None] * self.hess
            + cross
            + np.swapaxes(cross, -1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual2):
            return self * o._chain(1.0 / o.val, -1.0 / o.val**2, 2.0 / o.val**3)
        return self * (1.0 / np.asarray(o, dtype=float))

    def __rtruediv__(self, o):
        return self._lift(o) / self

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
        )

    def __repr__(self):
        return f"Dual2(val={self.val!r})"


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
