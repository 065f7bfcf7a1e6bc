"""Wedge-monomial evaluation, contraction, and antisymmetry properties."""

import numpy as np
import pytest

from nhfields.exceptions import DimensionMismatchError, InvalidArgumentError
from nhfields.exterior import Form, TangentVector, eval_wedge_monomial, join_blocks, split_blocks

from helpers import random_vector, wedge_eval_oracle


def basis(i, n=1, m=1):
    return TangentVector.basis(i, n, m)


def test_identity_determinant():
    # factors (dx0, dy) on (e_x0, e_y): identity pairing matrix
    assert eval_wedge_monomial([0, 2], [basis(0), basis(2)]) == 1.0


def test_antisymmetry_swap():
    assert eval_wedge_monomial([0, 2], [basis(2), basis(0)]) == -1.0


def test_dense_vs_cofactor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        factors = rng.uniform(-1, 1, (3, 5))
        vectors = [random_vector(rng, 1, 1) for _ in range(3)]
        got = eval_wedge_monomial(list(factors), vectors)
        want = wedge_eval_oracle(factors, vectors)
        assert got == pytest.approx(want, abs=1e-12)


def test_mismatched_counts_rejected():
    with pytest.raises(DimensionMismatchError):
        eval_wedge_monomial([0, 2], [basis(0)])


def test_mismatched_dimension_rejected():
    with pytest.raises(DimensionMismatchError):
        eval_wedge_monomial([np.ones(4)], [basis(0)])


def test_contract_volume_basis():
    # contract(dx0 ^ dx1, e_x0) = dx1 and contract(dx0 ^ dx1, e_x1) = -dx0
    vol = Form.from_terms([(1.0, [0, 1])], dim=5)
    c0 = vol.contract(basis(0))
    assert c0([basis(1)]) == pytest.approx(1.0)
    assert c0([basis(0)]) == pytest.approx(0.0)
    c1 = vol.contract(basis(1))
    assert c1([basis(0)]) == pytest.approx(-1.0)


def test_contract_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    T = Form.from_terms(
        [(rng.uniform(-1, 1), list(rng.uniform(-1, 1, (3, 5)))) for _ in range(4)],
        dim=5,
    )
    for _ in range(10):
        u, v, w = (random_vector(rng, 1, 1) for _ in range(3))
        assert T.contract(u)([v, w]) == pytest.approx(T([u, v, w]), abs=1e-12)


def test_double_contraction_vanishes():
    rng = np.random.default_rng(3)
    T = Form.from_terms(
        [(rng.uniform(-1, 1), list(rng.uniform(-1, 1, (3, 5)))) for _ in range(4)],
        dim=5,
    )
    u = random_vector(rng, 1, 1)
    twice = T.contract(u).contract(u)
    for _ in range(5):
        w = random_vector(rng, 1, 1)
        assert twice([w]) == pytest.approx(0.0, abs=1e-12)


def test_full_antisymmetry_under_permutations():
    from itertools import permutations

    rng = np.random.default_rng(11)
    factors = rng.uniform(-1, 1, (3, 5))
    vectors = [random_vector(rng, 1, 1) for _ in range(3)]
    base = eval_wedge_monomial(list(factors), vectors)
    for perm in permutations(range(3)):
        sign = np.linalg.det(np.eye(3)[list(perm)])
        val = eval_wedge_monomial(list(factors), [vectors[i] for i in perm])
        assert val == pytest.approx(sign * base, abs=1e-12)


def test_multilinearity_in_each_slot():
    rng = np.random.default_rng(19)
    factors = list(rng.uniform(-1, 1, (2, 5)))
    u, v, w = (random_vector(rng, 1, 1) for _ in range(3))
    a, b = 0.37, -1.21
    for slot in range(2):
        vecs_u = [u, w] if slot == 0 else [w, u]
        vecs_v = [v, w] if slot == 0 else [w, v]
        combo = TangentVector.from_components(
            a * u.components + b * v.components, 1, 1
        )
        vecs_c = [combo, w] if slot == 0 else [w, combo]
        lhs = eval_wedge_monomial(factors, vecs_c)
        rhs = a * eval_wedge_monomial(factors, vecs_u) + b * eval_wedge_monomial(
            factors, vecs_v
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_contract_one_form_gives_scalar():
    f = Form.from_terms([(2.0, [3])], dim=5)
    assert f.contract(basis(3)) == pytest.approx(2.0)


def test_empty_factor_list_rejected():
    with pytest.raises(InvalidArgumentError):
        eval_wedge_monomial([], [])


def test_tangent_vector_layout_roundtrip():
    rng = np.random.default_rng(5)
    v = random_vector(rng, 2, 3)
    # layout: x-block, y-block, v-block a-major mu-minor
    N = 3 + 3 + 9
    assert v.components.shape == (N,)
    back = TangentVector.from_components(v.components, 2, 3)
    assert np.array_equal(back.dv, v.dv)
    assert v.components[3 + 3 + 1 * 3 + 2] == v.dv[1, 2]
    # a batch: the stacked components of its points, bit for bit, whose
    # blocks split_blocks returns as views; blocks broadcast over the batch
    W = random_vector(rng, 2, 3, (4, 3))
    points = [TangentVector(W.dx[idx], W.dy[idx], W.dv[idx]).components
              for idx in np.ndindex(4, 3)]
    assert W.components.tobytes() == np.stack(points).tobytes()
    blocks = split_blocks(W.components, 3, 3)
    assert all(np.shares_memory(block, W.components) for block in blocks)
    assert [b.tobytes() for b in blocks] == [b.tobytes() for b in (W.dx, W.dy, W.dv)]
    shared = TangentVector(W.dx[0, 0], W.dy, W.dv[0, 0]).components
    assert shared.shape == (4, 3, N)
    assert np.array_equal(shared[2, 1], join_blocks(W.dx[0, 0], W.dy[2, 1], W.dv[0, 0]))


@pytest.mark.parametrize("call, error, match", [
    (lambda: TangentVector(np.zeros(3), np.zeros(2), np.zeros((3, 3))), DimensionMismatchError,
     "dv shape"),
    (lambda: split_blocks(np.zeros((2, 14)), 3, 3), DimensionMismatchError, "do not match"),
    (lambda: Form.from_terms([], dim=5), InvalidArgumentError, "at least one term"),
    (lambda: Form.from_terms([(1.0, [0]), (1.0, [0, 1])], dim=5), DimensionMismatchError,
     "share the degree"),
    (lambda: Form.from_terms([(1.0, [5])], dim=5), DimensionMismatchError, "outside layout"),
], ids=["blocks", "rows", "no-terms", "mixed-degree", "index"])
def test_each_layout_and_form_guard_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
