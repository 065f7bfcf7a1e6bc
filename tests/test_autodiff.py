"""Forward-mode dual arithmetic against analytic and finite differences."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhfields import autodiff as ad
from nhfields.exceptions import InvalidArgumentError

from helpers import DenseDual, DenseDual2, fd_gradient, fd_hessian, same_bits_up_to_zero_sign


def poly(x):
    # f(a, b) = a^2 b + sin(a b) + exp(b) / (1 + a^2)
    a, b = x
    return a * a * b + ad.sin(a * b) + ad.exp(b) / (1.0 + a * a)


def seed2(vals):
    return [ad.Dual2.seed(v, len(vals), i) for i, v in enumerate(vals)]


def seed1(vals):
    return [ad.Dual.seed(v, len(vals), i) for i, v in enumerate(vals)]


def test_first_order_gradient():
    x0 = [0.7, -0.4]
    out = poly(seed1(x0))
    want = fd_gradient(lambda x: float(np.asarray(poly(list(x)))), x0)
    assert np.allclose(out.dense(2), want, atol=1e-8)


def test_second_order_hessian_and_symmetry():
    x0 = [0.7, -0.4]
    out = poly(seed2(x0))
    H = out.hess
    assert np.allclose(H, H.T, atol=0)  # exact symmetry by construction
    want = fd_hessian(lambda x: float(np.asarray(poly(list(x)))), x0)
    assert np.allclose(H, want, atol=1e-5)


def test_division_and_powers():
    x = ad.Dual2.seed(2.0, 1, 0)
    y = (x**3 - 1.0) / (x + 1.0)
    # f = (x^3-1)/(x+1); f'(2) and f''(2) by hand
    f = lambda t: (t**3 - 1) / (t + 1)
    h = 1e-5
    d1 = (f(2 + h) - f(2 - h)) / (2 * h)
    d2 = (f(2 + h) - 2 * f(2.0) + f(2 - h)) / h**2
    assert float(y.val) == pytest.approx(f(2.0))
    assert float(y.grad[0]) == pytest.approx(d1, abs=1e-8)
    assert float(y.hess[0, 0]) == pytest.approx(d2, abs=1e-5)


def test_batched_values_match_scalar():
    xs = np.linspace(0.1, 1.0, 7)
    ys = np.linspace(-1.0, -0.1, 7)
    out = poly([ad.Dual2.seed(xs, 2, 0), ad.Dual2.seed(ys, 2, 1)])
    grad, hess = out.dense(2)
    for i in range(7):
        single = poly(seed2([xs[i], ys[i]]))
        assert out.val[i] == pytest.approx(float(single.val))
        assert np.allclose(grad[i], single.dense(2)[0])
        assert np.allclose(hess[i], single.dense(2)[1])


def test_unary_functions():
    for fn, dfn in ((ad.sin, np.cos), (ad.exp, np.exp),
                    (ad.log, lambda v: 1 / v), (ad.sqrt, lambda v: 0.5 / np.sqrt(v))):
        x = ad.Dual.seed(0.8, 1, 0)
        out = fn(x)
        assert float(out.dense(1)[0]) == pytest.approx(dfn(0.8), rel=1e-12)


def test_det_matches_numpy():
    rng = np.random.default_rng(0)
    for size in (1, 2, 3, 4):
        M = rng.uniform(-1, 1, (size, size))
        val = ad.det([list(row) for row in M])
        assert float(np.asarray(val)) == pytest.approx(np.linalg.det(M), abs=1e-12)


def test_det_gradient_is_cofactor():
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
    seeds = [[ad.Dual.seed(M[i, j], 9, 3 * i + j) for j in range(3)] for i in range(3)]
    out = ad.det(seeds)
    cof = np.linalg.det(M) * np.linalg.inv(M).T
    assert np.allclose(out.dense(9).reshape(3, 3), cof, atol=1e-12)


def test_scalar_mixing():
    x = ad.Dual2.seed(1.5, 1, 0)
    y = 2.0 * x + 1.0 - x / 4.0 + (3.0 - x) * x
    # f = 2x + 1 - x/4 + 3x - x^2 -> f' = 2 - 1/4 + 3 - 2x
    assert float(y.grad[0]) == pytest.approx(2 - 0.25 + 3 - 2 * 1.5)
    assert float(y.hess[0, 0]) == pytest.approx(-2.0)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_one_operand_operations_keep_the_dense_bits_of_a_zero(zero):
    # no union is formed, so even the sign of an exact zero on the support
    # must be the dense one: x + c turns -0.0 into 0.0, c - x turns 0.0
    # into 0.0, -x turns 0.0 into -0.0
    ops = [lambda a: a + 1.5, lambda a: 1.5 + a, lambda a: a - 1.5, lambda a: 1.5 - a,
           lambda a: -a, lambda a: a * -2.0, lambda a: -2.0 * a, lambda a: a / -2.0,
           ad.sin, ad.exp, lambda a: a**3]
    for op in ops:
        out, ref = (op(cls.seed(np.array([0.5, -0.5]), 1, 0) * zero)
                    for cls in (ad.Dual2, DenseDual2))
        for a, b in zip((out.val, *out.dense(1)), (ref.val, ref.grad, ref.hess)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# random compositions: the support-tracked Dual2 against the dense reference
# arithmetic and against central differences

DIRS = 4


def _pos(a):
    """A strictly positive argument for log, sqrt, powers and divisors."""
    return a * a + 0.5


UNARY = {
    "neg": lambda a: -a,
    "sin": ad.sin,
    "cos": ad.cos,
    "exp": ad.exp,
    "log": lambda a: ad.log(_pos(a)),
    "sqrt": lambda a: ad.sqrt(_pos(a)),
    "pow2": lambda a: a**2,
    "pow3": lambda a: a**3,
    "pow-1": lambda a: _pos(a) ** -1,
    "pow1.5": lambda a: _pos(a) ** 1.5,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / _pos(b),
}
WITH_CONSTANT = {
    "add": lambda a, c: a + c,
    "radd": lambda a, c: c + a,
    "sub": lambda a, c: a - c,
    "rsub": lambda a, c: c - a,
    "mul": lambda a, c: a * c,
    "rmul": lambda a, c: c * a,
    "div": lambda a, c: a / c,
    "rdiv": lambda a, c: c / _pos(a),
}


@st.composite
def compositions(draw, shapes=((), (1,), (5,)), mixed=False):
    """(batch shape, leaves, steps): each leaf is a seed direction (None for
    a constant dual) with its values; each step appends one result computed
    from earlier registers (indices taken modulo the register count).  With
    ``mixed`` every leaf and array constant draws its own shape from
    ``shapes``, and the batch shape returned is their broadcast."""
    shape = draw(st.sampled_from(shapes))
    unit = st.floats(-1.0, 1.0, allow_nan=False)

    def values(elements):
        vshape = draw(st.sampled_from(shapes)) if mixed else shape
        size = int(np.prod(vshape))
        vals = np.array(draw(st.lists(elements, min_size=size, max_size=size)))
        return vals.reshape(vshape)

    leaves = [(draw(st.one_of(st.none(), st.integers(0, DIRS - 1))), values(unit))
              for _ in range(draw(st.integers(1, 4)))]
    reg = st.integers(0, 99)
    nonzero = st.floats(0.25, 2.0).flatmap(lambda c: st.sampled_from([c, -c]))
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["unary", "binary", "constant", "det2", "det3"]))
        if kind == "unary":
            steps.append((kind, draw(st.sampled_from(sorted(UNARY))), draw(reg)))
        elif kind == "binary":
            steps.append((kind, draw(st.sampled_from(sorted(BINARY))), draw(reg), draw(reg)))
        elif kind == "constant":
            name = draw(st.sampled_from(sorted(WITH_CONSTANT)))
            elements = nonzero if name == "div" else st.floats(-2.0, 2.0)
            c = values(elements) if draw(st.booleans()) else draw(elements)
            steps.append((kind, name, draw(reg), c))
        else:
            size_det = 2 if kind == "det2" else 3
            steps.append((kind, [draw(reg) for _ in range(size_det * size_det)]))
    if mixed:
        shape = np.broadcast_shapes(*(np.shape(vals) for _, vals in leaves),
                                    *(np.shape(step[3]) for step in steps if step[0] == "constant"))
    return shape, leaves, steps


def composition_registers(leaves, steps, lift):
    """Each register of the composition, yielded as soon as it is made."""
    regs = []
    for direction, vals in leaves:
        regs.append(lift(direction, vals))
        yield regs[-1]
    for step in steps:
        kind = step[0]
        pick = lambda i: regs[i % len(regs)]  # noqa: E731
        if kind == "unary":
            regs.append(UNARY[step[1]](pick(step[2])))
        elif kind == "binary":
            regs.append(BINARY[step[1]](pick(step[2]), pick(step[3])))
        elif kind == "constant":
            regs.append(WITH_CONSTANT[step[1]](pick(step[2]), step[3]))
        else:
            idx = step[1]
            size = 2 if kind == "det2" else 3
            regs.append(ad.det([[pick(idx[size * r + c]) for c in range(size)]
                                for r in range(size)]))
        yield regs[-1]


def run_composition(leaves, steps, lift):
    *_, last = composition_registers(leaves, steps, lift)
    return last


def seeded(cls, shift=None):
    """A leaf builder for ``cls``, or for plain floats when it is None;
    ``shift`` = (direction, h) moves every leaf seeded on that direction by h."""
    def lift(direction, vals):
        if shift is not None and direction == shift[0]:
            vals = vals + shift[1]
        return vals if cls is None else cls.seed(vals, DIRS, direction)
    return lift


def check_against_the_dense_reference(leaves, steps):
    with np.errstate(all="ignore"):
        out = run_composition(leaves, steps, seeded(ad.Dual2))
        ref = run_composition(leaves, steps, seeded(DenseDual2))
    assert out.idx == tuple(sorted(set(out.idx)))
    assert set(out.idx) <= {d for d, _ in leaves if d is not None}
    s = len(out.idx)
    assert out.grad.shape[:1] == (s,) and out.hess.shape[:2] == (s, s)
    grad, hess = out.dense(DIRS)
    assert np.array_equal(out.val.view(np.int64), ref.val.view(np.int64))
    assert same_bits_up_to_zero_sign(grad, ref.grad)
    assert same_bits_up_to_zero_sign(hess, ref.hess)
    return out


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(compositions())
def test_support_tracked_dual2_matches_the_dense_reference(case):
    shape, leaves, steps = case
    check_against_the_dense_reference(leaves, steps)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(compositions(shapes=((), (1,), (5,)), mixed=True))
def test_leaves_and_constants_of_different_batch_shapes_broadcast_as_the_dense_reference(case):
    shape, leaves, steps = case
    out = check_against_the_dense_reference(leaves, steps)
    # the derivative arrays carry the batch axes of the value, unit where
    # they broadcast
    assert np.broadcast_shapes(out.val.shape, out.grad.shape[1:], out.hess.shape[2:]) == (
        out.val.shape)
    assert out.grad.ndim - 1 == out.hess.ndim - 2 == out.val.ndim
    assert np.broadcast_shapes(out.val.shape, shape) == shape


def test_one_composition_mixes_scalar_and_batched_leaves_and_constants():
    """Scalar and (5,) leaves, a (5,) constant dual and (5,) array constants
    meet in every kind of operation of one composition."""
    rng = np.random.default_rng(4)
    c = rng.uniform(0.5, 1.5, 5)
    leaves = [(0, np.array(0.3)), (1, rng.uniform(-1, 1, 5)), (None, rng.uniform(-1, 1, 5)),
              (2, np.array(-0.7))]
    steps = [("binary", "mul", 0, 1), ("binary", "add", 3, 2), ("constant", "add", 0, c),
             ("constant", "rsub", 3, c), ("constant", "mul", 0, -c), ("constant", "rdiv", 3, c),
             ("constant", "div", 0, c), ("constant", "sub", 3, c), ("binary", "div", 0, 3),
             ("unary", "sin", 4), ("det2", [0, 1, 6, 3]), ("binary", "sub", 0, 2),
             ("binary", "mul", 13, 15), ("det3", [0, 3, 6, 7, 8, 9, 10, 11, 12]),
             ("binary", "mul", 16, 17)]
    out = check_against_the_dense_reference(leaves, steps)
    assert out.val.shape == (5,) and out.idx == (0, 1, 2)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(compositions())
def test_support_tracked_dual2_matches_central_differences(case):
    shape, leaves, steps = case
    out = run_composition(leaves, steps, seeded(ad.Dual2))
    grad, hess = out.dense(DIRS)
    assume(np.all(np.abs(out.val) < 1e6) and np.all(np.abs(hess) < 1e6))
    h = 1e-6
    fd_grad = np.zeros_like(grad)
    fd_hess = np.zeros_like(hess)
    for i in range(DIRS):
        up = run_composition(leaves, steps, seeded(ad.Dual, (i, h)))
        down = run_composition(leaves, steps, seeded(ad.Dual, (i, -h)))
        fd_grad[..., i] = (up.val - down.val) / (2 * h)
        # the exact first-order gradient, differenced once
        fd_hess[..., :, i] = (up.dense(DIRS) - down.dense(DIRS)) / (2 * h)
    scale = 1.0 + np.max(np.abs(out.val)) + np.max(np.abs(grad), initial=0.0)
    assert np.allclose(grad, fd_grad, rtol=0, atol=1e-6 * scale)
    assert np.allclose(hess, fd_hess, rtol=0, atol=1e-5 * (scale + np.max(np.abs(hess))))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(compositions(shapes=((1,), (5,))))
def test_first_order_dual_has_the_plain_bits_and_central_difference_gradients(case):
    """A Dual's value takes the float operations of the same composition in
    plain arithmetic, so it has their bits; its gradient matches central
    differences of the plain composition."""
    shape, leaves, steps = case
    with np.errstate(all="ignore"):
        out = run_composition(leaves, steps, seeded(ad.Dual))
        ref = np.asarray(run_composition(leaves, steps, seeded(None)))
        grad = out.dense(DIRS)
        assert grad.shape == shape + (DIRS,)
        assert np.array_equal(out.val.view(np.int64), ref.view(np.int64))
        assume(np.all(np.abs(out.val) < 1e6) and np.all(np.abs(grad) < 1e6))
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(DIRS):
            up = run_composition(leaves, steps, seeded(None, (i, h)))
            down = run_composition(leaves, steps, seeded(None, (i, -h)))
            fd[..., i] = (up - down) / (2 * h)
    scale = 1.0 + np.max(np.abs(out.val)) + np.max(np.abs(grad))
    assert np.allclose(grad, fd, rtol=0, atol=1e-6 * scale)


def check_dual_against_the_dense_reference(leaves, steps):
    with np.errstate(all="ignore"):
        out = run_composition(leaves, steps, seeded(ad.Dual))
        ref = run_composition(leaves, steps, seeded(DenseDual))
    assert out.idx == tuple(sorted(set(out.idx)))
    assert set(out.idx) <= {d for d, _ in leaves if d is not None}
    assert out.grad.shape[:1] == (len(out.idx),) and out.grad.ndim - 1 == out.val.ndim
    assert np.array_equal(out.val.view(np.int64), ref.val.view(np.int64))
    assert same_bits_up_to_zero_sign(out.dense(DIRS), ref.grad)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(compositions())
def test_support_tracked_dual_matches_the_dense_reference(case):
    shape, leaves, steps = case
    check_dual_against_the_dense_reference(leaves, steps)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(compositions(mixed=True))
def test_dual_leaves_and_constants_of_different_batch_shapes_match_the_dense_reference(case):
    shape, leaves, steps = case
    check_dual_against_the_dense_reference(leaves, steps)


def _arrays(x):
    """The arrays a dual holds, or the plain operand itself."""
    if isinstance(x, ad.Dual2):
        return [x.val, x.grad, x.hess]
    if isinstance(x, ad.Dual):
        return [x.val, x.grad]
    return [np.asarray(x)]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(compositions(mixed=True), st.sampled_from(["Dual", "Dual2"]))
def test_no_operation_writes_into_an_operand(case, name):
    """Every register and every plain constant keeps, to the bit, the arrays
    it had when it was made, whatever the later operations do."""
    shape, leaves, steps = case
    constants = [step[3] for step in steps if step[0] == "constant"]
    made = [(a, a.copy()) for c in constants for a in _arrays(c)]
    with np.errstate(all="ignore"):
        for reg in composition_registers(leaves, steps, seeded(getattr(ad, name))):
            made += [(a, np.array(a, copy=True)) for a in _arrays(reg)]
    for now, then in made:
        assert np.array_equal(np.asarray(now).view(np.int64), then.view(np.int64))


def test_dual_seeds_share_one_read_only_gradient_per_batch_shape():
    a, b = ad.Dual.seed(np.zeros(4), 3, 0), ad.Dual.seed(np.ones(4), 3, 2)
    c, e = ad.Dual.seed(np.zeros(4), 3), ad.Dual.seed(np.ones(4), 3)
    assert a.grad is b.grad and c.grad is e.grad
    assert a.grad.shape == (1, 4) and c.grad.shape == (0, 4) and c.idx == ()
    assert not a.grad.flags.writeable and not c.grad.flags.writeable
    with pytest.raises(InvalidArgumentError):
        ad.Dual.seed(0.0, 3, 3)


# ---------------------------------------------------------------------------
# binary operations on named support placements, against the dense reference

def _over(cls, support, vals):
    """A value over exactly ``support``, with every grad and Hessian entry
    there nonzero."""
    out = 0.0
    for d in support:
        leaf = cls.seed(vals[d], DIRS, d)
        out = ad.sin(leaf + out) * leaf
    return out


PLACEMENTS = {
    "identical": ((0, 1), (0, 1), (5,)),
    "disjoint-runs": ((0, 1), (2, 3), (5,)),
    "nested": ((1,), (0, 1, 2), (5,)),
    # each support evenly spaced in the union: stepped slices
    "interleaved": ((0, 2), (1, 3), (5,)),
    # neither support is evenly spaced in the union: the flat-index path
    "irregular": ((0, 1, 3), (0, 2, 3), (5,)),
    # the first operand's values are a scalar batch, the second's (5,)
    "scalar-batch": ((0, 1), (1, 2), ()),
}


@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_binary_operations_place_each_support_as_the_dense_reference(op, placement):
    support_a, support_b, shape_a = PLACEMENTS[placement]
    rng = np.random.default_rng(8)
    vals_a, vals_b = rng.uniform(-1, 1, (DIRS,) + shape_a), rng.uniform(-1, 1, (DIRS, 5))
    for first, second in ((0, 1), (1, 0)):  # both operand orders
        out, ref = (
            BINARY[op](*[(_over(cls, support_a, vals_a), _over(cls, support_b, vals_b))[i]
                         for i in (first, second)])
            for cls in (ad.Dual2, DenseDual2))
        assert out.idx == tuple(sorted(set(support_a) | set(support_b)))
        assert out.val.shape == (5,) and out.grad.ndim - 1 == out.hess.ndim - 2 == 1
        grad, hess = out.dense(DIRS)
        assert np.array_equal(out.val.view(np.int64), ref.val.view(np.int64))
        assert same_bits_up_to_zero_sign(grad, ref.grad)
        assert same_bits_up_to_zero_sign(hess, ref.hess)
        assert np.count_nonzero(hess[0]) >= len(out.idx)


@pytest.mark.parametrize("op", sorted(BINARY))
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_dual_binary_operations_place_each_support_as_the_dense_reference(op, placement):
    support_a, support_b, shape_a = PLACEMENTS[placement]
    rng = np.random.default_rng(9)
    vals_a, vals_b = rng.uniform(-1, 1, (DIRS,) + shape_a), rng.uniform(-1, 1, (DIRS, 5))
    for first, second in ((0, 1), (1, 0)):  # both operand orders
        out, ref = (
            BINARY[op](*[(_over(cls, support_a, vals_a), _over(cls, support_b, vals_b))[i]
                         for i in (first, second)])
            for cls in (ad.Dual, DenseDual))
        assert out.idx == tuple(sorted(set(support_a) | set(support_b)))
        assert out.val.shape == (5,) and out.grad.ndim == 2
        grad = out.dense(DIRS)
        assert np.array_equal(out.val.view(np.int64), ref.val.view(np.int64))
        assert same_bits_up_to_zero_sign(grad, ref.grad)
        assert np.count_nonzero(grad[0]) == len(out.idx)


def test_dual2_seeds_share_one_read_only_gradient_and_hessian_per_batch_shape():
    a, b = ad.Dual2.seed(np.zeros(4), 3, 0), ad.Dual2.seed(np.ones(4), 3, 2)
    c, e = ad.Dual2.seed(np.zeros(4), 3), ad.Dual2.seed(np.ones(4), 3)
    assert a.grad is b.grad and a.hess is b.hess and c.grad is e.grad and c.hess is e.hess
    assert a.grad.shape == (1, 4) and a.hess.shape == (1, 1, 4)
    assert c.grad.shape == (0, 4) and c.hess.shape == (0, 0, 4) and c.idx == ()
    assert np.all(a.grad == 1.0) and np.all(a.hess == 0.0)


@pytest.mark.parametrize("cls", [ad.Dual, ad.Dual2])
def test_writing_into_a_seed_raises(cls):
    seeds = [cls.seed(np.zeros(3), 2, 0), cls.seed(np.zeros(3), 2)]
    for x in seeds:
        for arr in _arrays(x)[1:]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 2.0


@pytest.mark.parametrize("one", [1.0, 1, np.float64(1.0), np.array(1.0)])
def test_a_product_with_one_shares_the_operands_arrays(one):
    vals = np.array([0.5, -0.0, 0.0, -2.0, np.inf, -np.inf])
    for cls, dense_cls in ((ad.Dual2, DenseDual2), (ad.Dual, DenseDual)):
        with np.errstate(invalid="ignore"):
            x, ref = (ad.sin(c.seed(vals, 2, 0) * c.seed(vals[::-1].copy(), 2, 1))
                      for c in (cls, dense_cls))
            refs = (ref * one, one * ref)
        for out, dense in zip((x * one, one * x), refs):
            assert out.idx == x.idx
            assert all(a is b for a, b in zip(_arrays(out), _arrays(x)))
            read = out.dense(2)
            read = read if isinstance(read, tuple) else (read,)
            for a, b in zip((out.val, *read), _arrays(dense)):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_products_and_scalar_maps_of_mixed_batch_ranks_keep_the_dense_bits():
    """The in-place product and scalar map write into a result with the
    batch of the value, into which operands of other batch ranks broadcast:
    a scalar-batch operand, a (5,) one, and a value whose derivative
    arrays keep unit batch axes (a scalar leaf plus a (5,) constant)."""
    rng = np.random.default_rng(3)
    c = rng.uniform(0.5, 1.5, 5)
    rng_vals = rng.uniform(-1, 1, (3, 5))

    def operands(cls):
        s0, s1 = cls.seed(np.array(0.3), DIRS, 0), cls.seed(np.array(-0.7), DIRS, 1)
        b0 = cls.seed(rng_vals[0], DIRS, 0)
        b1 = cls.seed(rng_vals[1], DIRS, 1)
        unit = s0 * s1 + c  # value (5,), derivative arrays with a unit batch axis
        return {"scalar": s0 * s1 + s0, "batched": b0 * b1 - b1, "unit": unit,
                "disjoint": ad.sin(cls.seed(rng_vals[2], DIRS, 2)),
                "unit-disjoint": cls.seed(np.array(0.4), DIRS, 3) - c}

    ops, refs = operands(ad.Dual2), operands(DenseDual2)
    assert ops["unit"].val.shape == (5,) and ops["unit"].hess.shape == (2, 2, 1)
    for p, q in itertools.product(ops, repeat=2):
        for fn in (lambda a, b: a * b, lambda a, b: ad.sin(a) * ad.exp(b),
                   lambda a, b: (a * b) ** 3, lambda a, b: a / (b * b + 0.5)):
            out, ref = fn(ops[p], ops[q]), fn(refs[p], refs[q])
            grad, hess = out.dense(DIRS)
            assert np.array_equal(out.val.view(np.int64), ref.val.view(np.int64))
            assert same_bits_up_to_zero_sign(grad, ref.grad), (p, q)
            assert same_bits_up_to_zero_sign(hess, ref.hess), (p, q)
