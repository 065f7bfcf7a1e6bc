"""Dimensions, the periodic derivative, contact forms, minors, and
semi-holonomicity checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfields import autodiff as ad
from nhfields.exceptions import InvalidArgumentError
from nhfields.exterior import TangentVector
from nhfields.jet import (
    ConnectionCoeffs,
    Dims,
    STENCIL,
    JetPoint,
    _minors,
    contact_eval,
    deletion_minors,
    periodic_derivative,
    semiholonomic_residual,
)

from helpers import random_point, random_vector


def test_dims_validation():
    with pytest.raises(InvalidArgumentError):
        Dims(1, 0)
    with pytest.raises(InvalidArgumentError):
        Dims(1, 1, 5)
    assert Dims(1, 1, 1).N == 5
    assert Dims(3, 3).N == 19


def test_constant_section_has_zero_jet():
    values = np.full((5, 64), 0.7)
    for axis in (0, 1):
        assert np.allclose(periodic_derivative(values, 0.1, axis=axis), 0.0)


def test_sine_spatial_derivative_accuracy():
    # fourth order: halving h cuts the error about 16 times
    errs = []
    for n in (128, 256):
        us = np.arange(n) / n
        d = periodic_derivative(np.sin(2 * np.pi * us), 1.0 / n)
        errs.append(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * us)).max())
    assert errs[1] < 1e-6
    assert 14.0 < errs[0] / errs[1] < 18.0


def test_cubic_polynomial_exact():
    # the five-point stencil is exact on polynomials of degree <= 4, such as
    # u^2 (1-u)^2, at every point whose stencil does not wrap around
    us = np.arange(64) / 64
    d = periodic_derivative(us * us * (1 - us) ** 2, 1.0 / 64)
    exact = 2 * us * (1 - us) ** 2 - 2 * us * us * (1 - us)
    assert np.allclose(d[2:-2], exact[2:-2], rtol=0.0, atol=1e-10)


def test_periodic_derivative_along_each_axis():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((6, 9, 2))
    rows = np.stack([periodic_derivative(values[i], 0.5) for i in range(6)])
    assert np.array_equal(periodic_derivative(values, 0.5, axis=1), rows)
    moved = periodic_derivative(np.moveaxis(values, 0, 2), 0.5, axis=2)
    assert np.array_equal(periodic_derivative(values, 0.5), np.moveaxis(moved, 2, 0))


def test_periodic_derivative_needs_a_full_stencil():
    with pytest.raises(InvalidArgumentError):
        periodic_derivative(np.zeros((4, 8)), 0.1)
    assert periodic_derivative(np.zeros((5, 4)), 0.1).shape == (5, 4)


def test_stencil_moments_and_read_only():
    # sum_s c_s s^k is 0, 1, 0, 0, 0 for k = 0..4: a first derivative exact
    # on quartics
    offsets = np.arange(len(STENCIL)) - len(STENCIL) // 2
    moments = [STENCIL @ offsets.astype(float) ** k for k in range(5)]
    assert np.allclose(moments, [0.0, 1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError):
        STENCIL[0] = 0.0


def test_contact_on_vertical_and_horizontal_vectors():
    rng = np.random.default_rng(2)
    p = random_point(rng, 1, 2)
    e_y0 = TangentVector(np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 2)))
    vals = contact_eval(p, e_y0)
    assert vals[0] == 1.0 and vals[1] == 0.0
    # horizontal-of-jet direction: dx = e_mu, dy = v[:, mu]
    for mu in range(2):
        dx = np.zeros(2)
        dx[mu] = 1.0
        h = TangentVector(dx, p.v[:, mu], np.zeros((2, 2)))
        assert np.allclose(contact_eval(p, h), 0.0)


def test_a_batched_horizontal_lift_has_the_bits_of_each_point():
    rng = np.random.default_rng(4)
    Gamma, Gamma2 = rng.uniform(-1, 1, (3, 2, 2, 3)), rng.uniform(-1, 1, (3, 2, 2, 3, 3))
    for mu in range(3):
        lifts = ConnectionCoeffs(Gamma, Gamma2).horizontal_lift(mu).components
        points = [ConnectionCoeffs(Gamma[idx], Gamma2[idx]).horizontal_lift(mu).components
                  for idx in np.ndindex(3, 2)]
        assert lifts.tobytes() == np.stack(points).tobytes()
        assert np.array_equal(lifts[2, 1], np.concatenate(
            [np.eye(3)[mu], Gamma[2, 1, :, mu], Gamma2[2, 1, :, mu].ravel()]))


def test_contact_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_point(rng, 2, 3)
        u = random_vector(rng, 2, 3)
        direct = np.array(
            [u.dy[a] - np.dot(p.v[a], u.dx) for a in range(3)]
        )
        assert np.allclose(contact_eval(p, u), direct, atol=1e-14)


def test_contact_vanishes_on_prolonged_tangents():
    """theta annihilates the tangents of the first jet j1 s of a section:
    along base direction mu the tangent has dx = e_mu and dy = ds/dx^mu,
    which j1 s holds as v[:, mu], so theta(T_mu) = ds/dx^mu - v_mu = 0.
    For s(t, u) = sin 2 pi u cos 3t the jet is written out analytically and
    the tangents come from forward-mode differentiation of s."""
    rng = np.random.default_rng(6)
    for t, u in rng.uniform(0.0, 1.0, (20, 2)):
        s = ad.sin(2 * np.pi * ad.Dual.seed(u, 2, 1)) * ad.cos(3 * ad.Dual.seed(t, 2, 0))
        su, cu, st, ct = (np.sin(2 * np.pi * u), np.cos(2 * np.pi * u),
                          np.sin(3 * t), np.cos(3 * t))
        v = np.array([[-3 * su * st, 2 * np.pi * cu * ct]])
        w = np.array([[-9 * su * ct, -6 * np.pi * cu * st],
                      [-6 * np.pi * cu * st, -4 * np.pi**2 * su * ct]])
        p = JetPoint(np.array([t, u]), np.array([s.val]), v)
        for mu in range(2):
            tangent = TangentVector(np.eye(2)[mu], s.dense(2)[mu : mu + 1], w[None, mu])
            assert np.abs(contact_eval(p, tangent)).max() < 1e-14


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(R=st.integers(1, 6), extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_minors_match_lapack_determinants(R, extra, seed, scale):
    """Every r x r minor of X (R, Q) with 1 <= R <= Q <= 6, for every r in
    0..R, is the LAPACK determinant of its submatrix, relative to max|X|^r;
    the subsets are in lexicographic order, two batch axes go last, and the
    0 x 0 minor is one (n = 0)."""
    Q = min(R + extra, 6)
    X = scale * np.random.default_rng(seed).uniform(-1, 1, (R, Q, 2, 3))
    for r in range(R + 1):
        levels = _minors(X, r)
        assert len(levels) == r + 1
        want = np.array([[np.linalg.det(np.moveaxis(X[np.ix_(rows, cols)], (0, 1), (-2, -1)))
                          if r else np.ones((2, 3))
                          for cols in itertools.combinations(range(Q), r)]
                         for rows in itertools.combinations(range(R), r)])
        np.testing.assert_allclose(levels[r], want, rtol=0,
                                   atol=1e-12 * np.abs(X).max() ** r)


def test_deletion_minors_are_the_minors_of_each_deletion_bitwise():
    """Level r of the minors of X without column j, gathered from level r of
    the minors of X, has the bits of ``_minors`` on the deletion itself."""
    X = np.random.default_rng(5).uniform(-1, 1, (4, 5, 3, 2))
    for r in range(4):
        got = deletion_minors(_minors(X, r)[r], 5, r)
        for j in range(5):
            assert np.array_equal(got[..., j], _minors(np.delete(X, j, axis=1), r)[r])


def test_semiholonomic_residual_examples():
    rng = np.random.default_rng(4)
    p = random_point(rng, 1, 2)
    c = ConnectionCoeffs(p.v.copy(), rng.uniform(-1, 1, (2, 2, 2)))
    assert semiholonomic_residual(c, p) == 0.0
    G = p.v.copy()
    G[1, 0] += 0.5
    c2 = ConnectionCoeffs(G, c.Gamma2)
    assert semiholonomic_residual(c2, p) == pytest.approx(0.5)


def test_semiholonomic_residual_random_cross_check():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_point(rng, 2, 2)
        c = ConnectionCoeffs(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3, 3)))
        direct = np.abs(c.Gamma - p.v).max()
        assert semiholonomic_residual(c, p) == pytest.approx(direct, abs=1e-14)
