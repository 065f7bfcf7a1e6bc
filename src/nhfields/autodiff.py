"""Forward-mode automatic differentiation carrying gradient and Hessian.

``Dual`` propagates a value and its gradient with respect to d seed
directions, and its subclass ``Dual2`` adds the Hessian, the collapsed
form of nesting first-order duals.  Each rule the two share (sums,
differences, negation, scaling by a number, seeds) is written once, over
the tuple of derivative arrays, so ``Dual2`` defines only the rules that
touch the Hessian.  Values may be scalars or numpy arrays of any batch
shape S, so whole grids differentiate in one sweep.  Both track their
support: the sorted tuple ``idx`` of the s seed directions the value
depends on, with the grad stored batch last as (s,)+S and the Hessian as
(s, s)+S.  A binary operation on two supports allocates only its result
over their union and adds each operand's blocks into it through views,
one per run of consecutive positions, so a temporary costs its own
support, not all d directions, and nothing is gathered.  A constant
(support ``()``) of either class meets a value on the path of a plain
number.  A ``Dual2`` product of one support sums its Hessian terms into
its result row by row through one scratch row, and a scalar map through
one scratch block, in the order of the dense formulas, so every finite
entry keeps its bits.  A seed's gradient (and Hessian) is one read-only
array shared by every seed of its batch shape, and a product with the
plain scalar 1.0 shares its operand's arrays, as does a difference with
0.0.  No operation writes into an operand's arrays.  ``dense(d)`` reads
grad (and Hessian) back as S+(d,) (and S+(d, d)) over all d directions.

Lagrangians and constraints are written against the generic helpers here
(sin, cos, exp, ... , det) so the same code runs on floats and on duals.
"""

from __future__ import annotations

import functools

import numpy as np

from .exceptions import InvalidArgumentError


class Dual:
    """First-order forward value: f and its gradient over its support.

    ``grad`` (s,)+S has the batch axes of ``val`` last (unit where they
    broadcast).  A binary operation on two different supports adds each
    operand's block into exact zeros over their union, in the order of the
    dense formulas, so on finite values every entry has the bits the full
    d-direction propagation gives it, except that an exact zero may carry
    the other sign.  The rules that build their result as ``type(self)``
    from ``_widen``'s derivative arrays serve ``Dual2`` as well.
    """

    __slots__ = ("val", "grad", "idx")
    __array_priority__ = 100  # so ndarray * Dual defers to Dual.__rmul__
    _ORDER = 1  # the number of derivative arrays

    def __init__(self, val, grad, idx):
        # float arrays or numpy scalars, as ``seed`` and the operations make them
        self.val = val
        self.grad = grad
        self.idx = idx

    @classmethod
    def seed(cls, values, d, index=None):
        """Lift values to a dual with support ``(index,)``, or a constant
        (support ``()``) when no index is given."""
        values = np.asarray(values, dtype=float)
        if index is None:
            return cls(values, *_seed_arrays(cls._ORDER, 0, values.shape), ())
        if not 0 <= index < d:
            raise InvalidArgumentError(f"seed direction {index} is not in 0..{d - 1}")
        return cls(values, *_seed_arrays(cls._ORDER, 1, values.shape), (int(index),))

    def dense(self, d, out=None):
        """The gradient (..., d) over the seed directions 0..d-1, exact zeros
        off the support; with ``out`` (zeros whose shape broadcasts the
        batch) the support is scattered into it in place."""
        g = self.grad
        if out is None:
            out = np.zeros(g.shape[1:] + (d,))
        g = g.transpose((*range(1, g.ndim), 0))
        for src, dst in _placement(self.idx, tuple(range(d))):
            out[..., dst] = g[..., src]
        return out

    def __add__(self, o):
        if _tracked(o):
            return _sum(self, o, np.add) if self.idx else o + self.val
        o = _value(o)
        # + 0.0 turns a -0.0 into 0.0, as adding a lifted zero did
        arrays = _widen(self, getattr(o, "ndim", 0))
        return type(self)(self.val + o, *[a + 0.0 for a in arrays], self.idx)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.val, *[-a for a in _widen(self)], self.idx)

    def __sub__(self, o):
        if _tracked(o):
            return _sum(self, o, np.subtract) if self.idx else o.__rsub__(self.val)
        o = _value(o)
        # g - 0.0 has the bits of g, so the arrays are shared
        return type(self)(self.val - o, *_widen(self, getattr(o, "ndim", 0)), self.idx)

    def __rsub__(self, o):
        arrays = _widen(self, getattr(o, "ndim", 0))
        return type(self)(o - self.val, *[0.0 - a for a in arrays], self.idx)

    def __mul__(self, o):
        if not _tracked(o):
            o = _value(o)
            if _is_one(o):  # x * 1.0 has the bits of x, so the arrays are shared
                return type(self)(self.val, *_widen(self), self.idx)
            arrays = _widen(self, getattr(o, "ndim", 0))
            return type(self)(self.val * o, *[a * o for a in arrays], self.idx)
        if not self.idx:
            return o * self.val
        (g1,), (g2,) = _widen(self, o.val.ndim), _widen(o, self.val.ndim)
        val = self.val * o.val
        if self.idx == o.idx:
            return Dual(val, self.val * g2 + o.val * g1, self.idx)
        union = _union(self.idx, o.idx)
        return Dual(val, _product_grad(union, self.val, o.val, g1, g2, val.shape), union[0])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not _tracked(o):
            o = _value(o)
            inv = 1.0 / np.asarray(o, dtype=float)  # a Python 0.0 divides as an array does
            return Dual(self.val / o, inv * _widen(self, getattr(o, "ndim", 0))[0], self.idx)
        if not self.idx:
            return o.__rtruediv__(self.val)
        inv = 1.0 / o.val
        val = self.val / o.val  # the bits of the plain quotient, not self.val * inv
        (g1,), (g2,) = _widen(self, o.val.ndim), _widen(o, self.val.ndim)
        if self.idx == o.idx:
            return Dual(val, inv * (g1 - val * g2), self.idx)
        union, pa, pb = _union(self.idx, o.idx)[:3]
        diff = np.zeros((len(union),) + val.shape)
        _put(diff, pa, g1)
        _put(diff, pb, val * g2, np.subtract)
        return Dual(val, np.multiply(inv, diff, out=diff), union)

    def __rtruediv__(self, o):
        val = o / self.val
        g = _widen(self, getattr(o, "ndim", 0))[0]
        return Dual(val, (1.0 / self.val) * (0.0 - val * g), self.idx)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise InvalidArgumentError("dual powers support numeric exponents only")
        val = np.asarray(self.val)  # the array power; a float64 scalar's can be an ulp off
        return self._chain(val**p, p * val ** (p - 1))

    def _chain(self, f, df):
        """Compose with a scalar map given f and f' at self.val."""
        return Dual(f, df * self.grad, self.idx)

    def __repr__(self):
        return f"{type(self).__name__}(val={self.val!r}, idx={self.idx!r})"


@functools.lru_cache(maxsize=256)
def _seed_arrays(order: int, s: int, shape: tuple) -> tuple:
    """The derivative arrays of a seed (s = 1) or constant (s = 0) of a
    dual of ``order`` arrays: the (s,)+shape gradient of ones, then for
    order 2 the (s, s)+shape Hessian of zeros.  They are read-only
    broadcast views, shared by every seed of that shape, which hold no
    batch of their own."""
    grad = np.broadcast_to(1.0, (s,) + shape)
    return (grad,) if order == 1 else (grad, np.broadcast_to(0.0, (s, s) + shape))


def _is_one(o) -> bool:
    """Whether the plain operand o is the scalar 1.0."""
    return getattr(o, "ndim", 0) == 0 and o == 1.0


def _product(shape: tuple, x, y) -> np.ndarray:
    """x * y in a new array of ``shape``, into which both broadcast."""
    return np.multiply(x, y, out=np.empty(shape))


def _tracked(o) -> bool:
    """Whether o is a dual of nonempty support; anything else, a constant
    dual included, meets a dual on the path of a plain number."""
    return isinstance(o, Dual) and o.idx != ()


def _value(o):
    return o.val if isinstance(o, Dual) else o


def _widen(x: Dual, ndim: int = 0) -> tuple:
    """The derivative arrays of x (its grad, then its hess for a Dual2),
    with unit axes after the derivative axes so that they broadcast
    against a value of ``ndim`` axes; the arrays themselves when x's value
    has at least that many."""
    arrays = (x.grad, x.hess) if isinstance(x, Dual2) else (x.grad,)
    if ndim <= x.val.ndim:
        return arrays
    pad = (1,) * (ndim - x.val.ndim)
    return tuple([a.reshape(a.shape[:r] + pad + a.shape[r:]) for r, a in enumerate(arrays, 1)])


def _sum(a: Dual, b: Dual, op) -> Dual:
    """a + b or a - b (``op`` np.add or np.subtract) of two duals of one
    class and nonempty supports: each operand's derivative arrays are
    added into exact zeros over the union of the supports."""
    wa, wb = _widen(a, b.val.ndim), _widen(b, a.val.ndim)
    val = op(a.val, b.val)
    if a.idx == b.idx:
        return type(a)(val, *map(op, wa, wb), a.idx)
    union, pa, pb, aa, bb, _, _ = _union(a.idx, b.idx)
    s, batch = len(union), wa[0].shape[1:]
    if batch != wb[0].shape[1:]:
        batch = np.broadcast_shapes(batch, wb[0].shape[1:])
    grad = np.zeros((s,) + batch)
    _put(grad, pa, wa[0])
    _put(grad, pb, wb[0], op)
    if len(wa) == 1:
        return Dual(val, grad, union)
    hess = np.zeros((s, s) + batch)
    _put(hess, aa, wa[1])
    _put(hess, bb, wb[1], op)
    return Dual2(val, grad, hess, union)


def _product_grad(union: tuple, a, b, g1, g2, shape: tuple) -> np.ndarray:
    """The gradient a g2 + b g1 of a product a b of values on two different
    supports, summed in the dense order into exact zeros over their
    ``union`` (a ``_union`` tuple); it covers the batch ``shape`` of the
    product's value."""
    support, pa, pb = union[:3]
    grad = np.zeros((len(support),) + shape)
    _put(grad, pb, a * g2)
    _put(grad, pa, b * g1, np.add)
    return grad


@functools.cache
def _placement(sub: tuple, sup: tuple) -> tuple:
    """Where the directions of support ``sub`` sit inside support ``sup``:
    the (source, destination) slice pairs of its runs of consecutive
    positions, so every run is written through a view and nothing is
    gathered."""
    pos = np.searchsorted(sup, sub)
    cuts = [0, *(np.flatnonzero(np.diff(pos) != 1) + 1).tolist(), len(pos)]
    return tuple((slice(i, j), slice(int(pos[i]), int(pos[j - 1]) + 1))
                 for i, j in zip(cuts, cuts[1:]) if i < j)


def _block(p: tuple, q: tuple) -> tuple:
    """Where the Hessian block of directions p x q sits, from their
    placements: the slice pairs of its run x run sub-blocks."""
    return tuple(((rs, cs), (rd, cd)) for rs, rd in p for cs, cd in q)


@functools.cache
def _union(a: tuple, b: tuple):
    """The union of two supports, where the grads of a and b sit in it, and
    where the Hessian blocks a x a, b x b, a x b and b x a sit."""
    union = tuple(sorted(set(a) | set(b)))
    pa, pb = _placement(a, union), _placement(b, union)
    return union, pa, pb, _block(pa, pa), _block(pb, pb), _block(pa, pb), _block(pb, pa)


def _put(out, place, block, op=None):
    """out[dst] = block[src], or op(out[dst], block[src]), in place through
    views of out for each (source, destination) pair of ``place`` (from
    ``_placement`` or ``_block``), which address the leading axes."""
    for src, dst in place:
        if op is None:
            out[dst] = block[src]
        else:
            view = out[dst]
            op(view, block[src], out=view)


class Dual2(Dual):
    """Second-order forward value: a ``Dual`` that also carries the Hessian
    ``hess`` (s, s)+S, batch last as ``grad`` is, so every product runs
    over contiguous batch rows.  A product of two different supports adds
    each operand's blocks into exact zeros over their union in the order
    of the dense formulas: first a h_b, then b h_a, then g_a g_b^T at
    (a-support x b-support), then its transpose.
    """

    __slots__ = ("hess",)
    _ORDER = 2

    def __init__(self, val, grad, hess, idx):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.idx = idx

    # ``seed`` and ``__sub__`` are Dual's, restated so that a trace names
    # them as Dual2's (bench/tests/test_harness.py pins those span names)
    @classmethod
    def seed(cls, values, d, index=None):
        """Lift values to a Dual2 with support ``(index,)``, or a constant
        (support ``()``) when no index is given."""
        return super().seed(values, d, index)

    def dense(self, d):
        """(grad (..., d), hess (..., d, d)) over the seed directions 0..d-1,
        exact zeros off the support."""
        place = _placement(self.idx, tuple(range(d)))
        g, h = np.zeros((d,) + self.grad.shape[1:]), np.zeros((d, d) + self.hess.shape[2:])
        _put(g, place, self.grad)
        _put(h, _block(place, place), self.hess)
        return np.moveaxis(g, 0, -1), np.moveaxis(h, (0, 1), (-2, -1))

    def __sub__(self, o):
        return super().__sub__(o)

    def __mul__(self, o):
        if not (_tracked(o) and self.idx):  # a plain operand or a constant
            return super().__mul__(o)
        (g1, h1), (g2, h2) = _widen(self, o.val.ndim), _widen(o, self.val.ndim)
        a, b = self.val, o.val
        val = a * b
        if self.idx == o.idx:
            # a h2 + b h1 + g1 g2^T + g2 g1^T, summed in the dense order into
            # the result row by row through one scratch row
            shape = (len(self.idx),) * 2 + val.shape
            hess, row = _product(shape, a, h2), np.empty(shape[1:])
            for i, out in enumerate(hess):
                out += np.multiply(b, h1[i], out=row)
                out += np.multiply(g1[i], g2, out=row)
                out += np.multiply(g1, g2[i], out=row)
            grad = _product(shape[1:], a, g2)
            grad += b * g1
            return Dual2(val, grad, hess, self.idx)
        # the dense order, a h2 + b h1 + g1 g2^T + g2 g1^T, block by block;
        # the result covers the batch of the value, as a h2 does
        union = _union(self.idx, o.idx)
        _, _, _, aa, bb, ab, ba = union
        s = len(union[0])
        grad = _product_grad(union, a, b, g1, g2, val.shape)
        hess = np.zeros((s, s) + val.shape)
        _put(hess, bb, a * h2)
        _put(hess, aa, b * h1, np.add)
        cross = g1[:, None] * g2[None, :]
        _put(hess, ab, cross, np.add)
        _put(hess, ba, np.swapaxes(cross, 0, 1), np.add)
        return Dual2(val, grad, hess, union[0])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if _tracked(o):
            return self * o._reciprocal()
        return self * (1.0 / np.asarray(_value(o), dtype=float))

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        v = self.val
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

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
