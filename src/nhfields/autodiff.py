"""Forward-mode automatic differentiation carrying gradient and Hessian.

``Dual`` propagates a value and its gradient with respect to d seed
directions, and ``Dual2`` additionally the Hessian, the collapsed form of
nesting first-order duals.  Values may be scalars or numpy arrays of any
batch shape S, so whole grids differentiate in one sweep.  Both track their
support: the sorted tuple ``idx`` of the s seed directions the value
depends on, with the grad stored batch last as (s,)+S and the Hessian as
(s, s)+S.  A binary operation on two supports allocates only its result
over their union and adds each operand's blocks into it, so a temporary
costs its own support, not all d directions.  A ``Dual2`` product of
one support and a scalar map allocate their results and one scratch
block, through which they sum their Hessian terms into the result in
place, in the order of the dense formulas, so every entry keeps its
bits.  A seed's gradient
(and Hessian) is one read-only array shared by every seed of its batch
shape, and a product with the plain scalar 1.0 shares its operand's
arrays, as does a difference with 0.0.  No operation writes into an
operand's arrays.  ``dense(d)`` reads grad (and Hessian) back as S+(d,)
(and S+(d, d)) over all d directions.

Lagrangians and constraints are written against the generic helpers here
(sin, cos, exp, ... , det) so the same code runs on floats and on duals.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import InvalidArgumentError


class Dual:
    """First-order forward value: f and its gradient over its support.

    As for ``Dual2``, ``idx`` is the sorted tuple of the s seed directions
    the value depends on, and ``grad`` (s,)+S has the batch axes of ``val``
    last (unit where they broadcast).  A binary operation on two different
    supports adds each operand's block into exact zeros over their union,
    in the order of the dense formulas, so on finite values every entry
    has the bits the full d-direction propagation gives it, except that an
    exact zero may carry the other sign.  A constant (support ``()``) meets
    a value on the path of a plain number.  :meth:`dense` reads the gradient back as
    S+(d,).
    """

    __slots__ = ("val", "grad", "idx")
    __array_priority__ = 100  # so ndarray * Dual defers to Dual.__rmul__

    def __init__(self, val, grad, idx):
        # float arrays or numpy scalars, as ``seed`` and the operations make them
        self.val = val
        self.grad = grad
        self.idx = idx

    @classmethod
    def seed(cls, values, d, index=None):
        """Lift values to a Dual with support ``(index,)``, or a constant
        (support ``()``) when no index is given."""
        values = np.asarray(values, dtype=float)
        if index is None:
            return cls(values, _seed_grad(0, values.shape), ())
        if not 0 <= index < d:
            raise InvalidArgumentError(f"seed direction {index} is not in 0..{d - 1}")
        return cls(values, _seed_grad(1, values.shape), (int(index),))

    def dense(self, d, out=None):
        """The gradient (..., d) over the seed directions 0..d-1, exact zeros
        off the support; with ``out`` (zeros whose shape broadcasts the
        batch) the support is scattered into it in place."""
        g = self.grad
        if out is None:
            out = np.zeros(g.shape[1:] + (d,))
        out[..., _placement(self.idx, tuple(range(d)))] = g.transpose((*range(1, g.ndim), 0))
        return out

    def __add__(self, o):
        if _tracked(o):
            return _sum1(self, o, np.add) if self.idx else o + self.val
        o = _value(o)
        # + 0.0 turns a -0.0 into 0.0, as adding a lifted zero did
        return Dual(self.val + o, _grad_for(self, o) + 0.0, self.idx)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.grad, self.idx)

    def __sub__(self, o):
        if _tracked(o):
            return _sum1(self, o, np.subtract) if self.idx else o.__rsub__(self.val)
        o = _value(o)
        # g - 0.0 has the bits of g, so the array is shared
        return Dual(self.val - o, _grad_for(self, o), self.idx)

    def __rsub__(self, o):
        return Dual(o - self.val, 0.0 - _grad_for(self, o), self.idx)

    def __mul__(self, o):
        if not _tracked(o):
            o = _value(o)
            if _is_one(o):  # x * 1.0 has the bits of x, so the arrays are shared
                return Dual(self.val, self.grad, self.idx)
            return Dual(self.val * o, _grad_for(self, o) * o, self.idx)
        if not self.idx:
            return o * self.val
        g1, g2 = _grads(self, o)
        val = self.val * o.val
        if self.idx == o.idx:
            return Dual(val, self.val * g2 + o.val * g1, self.idx)
        # the dense order a g2 + b g1; the result covers the batch of the value
        union, pa, pb = _union(self.idx, o.idx)[:3]
        grad = np.zeros((len(union),) + val.shape)
        _put(grad, pb, self.val * g2, 1)
        _put(grad, pa, o.val * g1, 1, np.add)
        return Dual(val, grad, union)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not _tracked(o):
            o = _value(o)
            inv = 1.0 / np.asarray(o, dtype=float)  # a Python 0.0 divides as an array does
            return Dual(self.val / o, inv * _grad_for(self, o), self.idx)
        if not self.idx:
            return o.__rtruediv__(self.val)
        inv = 1.0 / o.val
        val = self.val / o.val  # the bits of the plain quotient, not self.val * inv
        g1, g2 = _grads(self, o)
        if self.idx == o.idx:
            return Dual(val, inv * (g1 - val * g2), self.idx)
        union, pa, pb = _union(self.idx, o.idx)[:3]
        diff = np.zeros((len(union),) + val.shape)
        _put(diff, pa, g1, 1)
        _put(diff, pb, val * g2, 1, np.subtract)
        return Dual(val, np.multiply(inv, diff, out=diff), union)

    def __rtruediv__(self, o):
        val = o / self.val
        return Dual(val, (1.0 / self.val) * (0.0 - val * _grad_for(self, o)), self.idx)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise InvalidArgumentError("dual powers support numeric exponents only")
        return self._chain(self.val**p, p * self.val ** (p - 1))

    def _chain(self, f, df):
        """Compose with a scalar map given f and f' at self.val."""
        return Dual(f, df * self.grad, self.idx)

    def __repr__(self):
        return f"Dual(val={self.val!r}, idx={self.idx!r})"


@functools.lru_cache(maxsize=256)
def _seed_grad(s: int, shape: tuple) -> np.ndarray:
    """The (s,)+shape gradient of a seed (s = 1, ones) or constant (s = 0,
    empty): one read-only broadcast view per batch shape, shared by every
    seed of that shape, which holds no batch of its own."""
    return np.broadcast_to(1.0, (s,) + shape)


@functools.lru_cache(maxsize=256)
def _seed_hess(s: int, shape: tuple) -> np.ndarray:
    """The (s, s)+shape zero Hessian of a ``Dual2`` seed (s = 1) or constant
    (s = 0), shared as ``_seed_grad`` is."""
    return np.broadcast_to(0.0, (s, s) + shape)


def _is_one(o) -> bool:
    """Whether the plain operand o is the scalar 1.0."""
    return np.ndim(o) == 0 and o == 1.0


def _product(shape: tuple, x, y) -> np.ndarray:
    """x * y in a new array of ``shape``, into which both broadcast."""
    return np.multiply(x, y, out=np.empty(shape))


def _tracked(o) -> bool:
    """Whether o is a Dual of nonempty support; anything else, a constant
    Dual included, meets a Dual on the path of a plain number."""
    return isinstance(o, Dual) and o.idx != ()


def _value(o):
    return o.val if isinstance(o, Dual) else o


def _grad_for(x: Dual, o):
    """x.grad, widened only when the plain operand o has more axes than
    x's value."""
    ndim = getattr(o, "ndim", 0)
    return x.grad if ndim <= x.val.ndim else _widen(x, ndim)[0]


def _grads(a: Dual, b: Dual):
    """The grads of a and b, each widened only when its value has fewer
    axes than the other's."""
    if a.val.ndim == b.val.ndim:
        return a.grad, b.grad
    return _widen(a, b.val.ndim)[0], _widen(b, a.val.ndim)[0]


def _sum1(a: Dual, b: Dual, op) -> Dual:
    """a + b or a - b (``op`` np.add or np.subtract) of two Duals of
    nonempty support, each grad added into exact zeros over their union."""
    ga, gb = _grads(a, b)
    val = op(a.val, b.val)
    if a.idx == b.idx:
        return Dual(val, op(ga, gb), a.idx)
    union, pa, pb = _union(a.idx, b.idx)[:3]
    batch = ga.shape[1:]
    if batch != gb.shape[1:]:
        batch = np.broadcast_shapes(batch, gb.shape[1:])
    grad = np.zeros((len(union),) + batch)
    _put(grad, pa, ga, 1)
    _put(grad, pb, gb, 1, op)
    return Dual(val, grad, union)


@functools.cache
def _placement(sub: tuple, sup: tuple):
    """Where the directions of support ``sub`` sit inside support ``sup``:
    a slice when they are one run of it, else their positions."""
    pos = np.searchsorted(sup, sub).astype(np.intp)
    if sub and pos[-1] - pos[0] == len(sub) - 1:
        return slice(int(pos[0]), int(pos[-1]) + 1)
    return pos


def _block(p, q, s: int):
    """Where the Hessian block of directions p x q sits over a support of
    size s: a pair of slices, or flat positions into its (s*s) axes."""
    if isinstance(p, slice) and isinstance(q, slice):
        return p, q
    r = np.arange(s)
    return (r[p][:, None] * s + r[q]).ravel()


@functools.cache
def _union(a: tuple, b: tuple):
    """The union of two supports, where the grads of a and b sit in it, and
    where the Hessian blocks a x a, b x b, a x b and b x a sit."""
    union = tuple(sorted(set(a) | set(b)))
    s = len(union)
    pa, pb = _placement(a, union), _placement(b, union)
    return (union, pa, pb,
            _block(pa, pa, s), _block(pb, pb, s), _block(pa, pb, s), _block(pb, pa, s))


def _put(out, index, block, axes: int, op=None):
    """out[index] = block, or op(out[index], block), in place, where
    ``index`` (from ``_placement`` or ``_block``) addresses the first
    ``axes`` axes of out."""
    if axes > 1 and isinstance(index, np.ndarray):
        out = out.reshape((-1,) + out.shape[axes:])
        block = block.reshape((-1,) + block.shape[axes:])
    if op is None:
        out[index] = block
    elif isinstance(index, np.ndarray):  # a gathered copy, written back
        part = out[index]
        out[index] = op(part, block, out=part)
    else:
        view = out[index]
        op(view, block, out=view)


def _widen(x, ndim: int):
    """The derivative arrays of x (its grad, then its hess for a Dual2) with
    unit axes after the derivative axes, so that they broadcast against a
    value of ``ndim`` axes."""
    arrays = (x.grad, x.hess) if isinstance(x, Dual2) else (x.grad,)
    pad = (1,) * (ndim - x.val.ndim)
    if not pad:
        return arrays
    return tuple(a.reshape(a.shape[:r] + pad + a.shape[r:]) for r, a in enumerate(arrays, 1))


def _sum(a: Dual2, b: Dual2, op) -> Dual2:
    """a + b or a - b (``op`` np.add or np.subtract): each operand's blocks
    are added into exact zeros over the union of the supports."""
    (ga, ha), (gb, hb) = _widen(a, b.val.ndim), _widen(b, a.val.ndim)
    val = op(a.val, b.val)
    if a.idx == b.idx:
        return Dual2(val, op(ga, gb), op(ha, hb), a.idx)
    union, pa, pb, aa, bb, _, _ = _union(a.idx, b.idx)
    s, batch = len(union), ga.shape[1:]
    if batch != gb.shape[1:]:
        batch = np.broadcast_shapes(batch, gb.shape[1:])
    grad, hess = np.zeros((s,) + batch), np.zeros((s, s) + batch)
    _put(grad, pa, ga, 1)
    _put(grad, pb, gb, 1, op)
    _put(hess, aa, ha, 2)
    _put(hess, bb, hb, 2, op)
    return Dual2(val, grad, hess, union)


class Dual2:
    """Second-order forward value: f, gradient, and Hessian over its support.

    ``idx`` is the sorted tuple of seed directions the value depends on;
    ``grad`` (s,)+S and ``hess`` (s, s)+S, s = len(idx), have the batch axes
    of ``val`` last (unit where they broadcast), so a temporary carries only
    the directions it touches and every product runs over contiguous batch
    rows.  A binary operation on two different supports allocates its
    result in exact zeros over their union and adds each operand's blocks
    into it, in the order of the dense formulas: for a product a b, first
    a h_b, then b h_a, then g_a g_b^T at (a-support x b-support), then its
    transpose.  Every entry therefore has the bits the full (d, d)
    propagation gives it, except that an exact zero may carry the other
    sign.  :meth:`dense` reads the result back over all d directions.
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
        return cls(values, _seed_grad(1, values.shape), _seed_hess(1, values.shape),
                   (int(index),))

    @classmethod
    def _constant(cls, values):
        values = np.asarray(values, dtype=float)
        return cls(values, _seed_grad(0, values.shape), _seed_hess(0, values.shape), ())

    def dense(self, d):
        """(grad (..., d), hess (..., d, d)) over the seed directions 0..d-1,
        exact zeros off the support."""
        place = _placement(self.idx, tuple(range(d)))
        g, h = np.zeros((d,) + self.grad.shape[1:]), np.zeros((d, d) + self.hess.shape[2:])
        _put(g, place, self.grad, 1)
        _put(h, _block(place, place, d), self.hess, 2)
        return np.moveaxis(g, 0, -1), np.moveaxis(h, (0, 1), (-2, -1))

    def __add__(self, o):
        if not isinstance(o, Dual2):
            # + 0.0 turns a -0.0 into 0.0, as adding a lifted zero did
            g, h = _widen(self, np.ndim(o))
            return Dual2(self.val + o, g + 0.0, h + 0.0, self.idx)
        return _sum(self, o, np.add)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.grad, -self.hess, self.idx)

    def __sub__(self, o):
        if not isinstance(o, Dual2):
            # g - 0.0 has the bits of g, so the arrays are shared
            return Dual2(self.val - o, *_widen(self, np.ndim(o)), self.idx)
        return _sum(self, o, np.subtract)

    def __rsub__(self, o):
        g, h = _widen(self, np.ndim(o))
        return Dual2(o - self.val, 0.0 - g, 0.0 - h, self.idx)

    def __mul__(self, o):
        if not isinstance(o, Dual2):  # cheap scalar/array path
            if _is_one(o):  # x * 1.0 has the bits of x, so the arrays are shared
                return Dual2(self.val, self.grad, self.hess, self.idx)
            o = np.asarray(o, dtype=float)
            g, h = _widen(self, o.ndim)
            return Dual2(self.val * o, g * o, h * o, self.idx)
        (g1, h1), (g2, h2) = _widen(self, o.val.ndim), _widen(o, self.val.ndim)
        a, b = self.val, o.val
        val = a * b
        if self.idx == o.idx:
            # a h2 + b h1 + g1 g2^T + g2 g1^T, summed in the dense order into
            # the result through one scratch block
            shape = (len(self.idx),) * 2 + val.shape
            hess, scratch = _product(shape, a, h2), _product(shape, b, h1)
            hess += scratch
            np.multiply(g1[:, None], g2[None, :], out=scratch)
            hess += scratch
            hess += np.swapaxes(scratch, 0, 1)
            grad = _product(shape[1:], a, g2)
            grad += b * g1
            return Dual2(val, grad, hess, self.idx)
        # the dense order, a h2 + b h1 + g1 g2^T + g2 g1^T, block by block;
        # the result covers the batch of the value, as a h2 does
        union, pa, pb, aa, bb, ab, ba = _union(self.idx, o.idx)
        s = len(union)
        grad, hess = np.zeros((s,) + val.shape), np.zeros((s, s) + val.shape)
        _put(grad, pb, a * g2, 1)
        _put(grad, pa, b * g1, 1, np.add)
        _put(hess, bb, a * h2, 2)
        _put(hess, aa, b * h1, 2, np.add)
        cross = g1[:, None] * g2[None, :]
        _put(hess, ab, cross, 2, np.add)
        _put(hess, ba, np.swapaxes(cross, 0, 1), 2, np.add)
        return Dual2(val, grad, hess, union)

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
        """Compose with a scalar map given f, f', f'' at self.val: the
        Hessian df h + d2f g g^T, summed into the result through one
        scratch block."""
        g = self.grad
        shape = self.hess.shape[:2] + np.broadcast_shapes(
            np.shape(df), np.shape(d2f), self.hess.shape[2:], g.shape[1:])
        hess, outer = _product(shape, df, self.hess), _product(shape, g[:, None], g[None, :])
        np.multiply(d2f, outer, out=outer)
        hess += outer
        return Dual2(f, df * g, hess, self.idx)

    def __repr__(self):
        return f"Dual2(val={self.val!r}, idx={self.idx!r})"


def _unary(x, f, df, d2f):
    if isinstance(x, Dual2):
        return x._chain(f(x.val), df(x.val), d2f(x.val))
    if isinstance(x, Dual):
        return x._chain(f(x.val), df(x.val))
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
