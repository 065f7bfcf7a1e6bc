"""Prolongation, contact forms, and semi-holonomicity checks."""

import numpy as np
import pytest

from nhfields.exceptions import InvalidArgumentError
from nhfields.exterior import TangentVector
from nhfields.jet import (
    ConnectionCoeffs,
    Dims,
    JetPoint,
    SectionSamples,
    contact_eval,
    prolong_section,
    semiholonomic_residual,
)

from helpers import random_point, random_vector


def make_samples(fn, Nt=5, Nu=64, dt=1e-3, ydot=None, yddot=None):
    ts = np.arange(Nt) * dt
    us = np.arange(Nu) / Nu
    T, U = np.meshgrid(ts, us, indexing="ij")
    y = fn(T, U)[..., None]
    kw = {}
    if ydot is not None:
        kw["ydot"] = ydot(T, U)[..., None]
    if yddot is not None:
        kw["yddot"] = yddot(T, U)[..., None]
    return SectionSamples(ts, us, y, **kw)


def test_dims_validation():
    with pytest.raises(InvalidArgumentError):
        Dims(1, 0)
    with pytest.raises(InvalidArgumentError):
        Dims(1, 1, 5)
    assert Dims(1, 1, 1).N == 5
    assert Dims(3, 3).N == 19


def test_constant_section_has_zero_jet():
    samples = make_samples(lambda t, u: np.full_like(u, 0.7))
    q = prolong_section(samples, (2, 10))
    assert np.allclose(q.point.v, 0.0)
    assert np.allclose(q.w, 0.0)


def test_nonperiodic_section_rejected():
    ts = np.arange(5) * 1e-3
    us = np.arange(64) / 64
    y = np.broadcast_to(us, (5, 64))[..., None]
    with pytest.raises(InvalidArgumentError):
        prolong_section(SectionSamples(ts, us, y), (2, 5))


def test_sine_spatial_derivative_accuracy():
    samples = make_samples(
        lambda t, u: np.sin(2 * np.pi * u),
        ydot=lambda t, u: np.zeros_like(u),
        yddot=lambda t, u: np.zeros_like(u),
    )
    errs = []
    for iu in range(0, 64, 7):
        q = prolong_section(samples, (2, iu))
        u = samples.us[iu]
        errs.append(abs(q.point.v[0, 1] - 2 * np.pi * np.cos(2 * np.pi * u)))
    assert max(errs) < 1e-6


def test_cubic_polynomial_exact():
    # stencils of order >= 4 are exact on cubics; periodic wrap is smooth for
    # the cubic bump u^2 (1-u)^2 ... use a trig-free periodic cubic via the
    # Bernoulli-like profile u^2(1-u)^2 whose derivative matches analytically
    def f(t, u):
        return u * u * (1 - u) ** 2

    def df(u):
        return 2 * u * (1 - u) ** 2 - 2 * u * u * (1 - u)

    samples = make_samples(f, ydot=lambda t, u: np.zeros_like(u))
    # away from the wrap the stencil sees a pure cubic, where it is exact
    for iu in (5, 10, 33):
        q = prolong_section(samples, (1, iu))
        assert q.point.v[0, 1] == pytest.approx(df(samples.us[iu]), abs=1e-10)


def test_temporal_derivatives_from_analytic_slices():
    samples = make_samples(
        lambda t, u: np.sin(2 * np.pi * u) * np.cos(t),
        ydot=lambda t, u: -np.sin(2 * np.pi * u) * np.sin(t),
        yddot=lambda t, u: -np.sin(2 * np.pi * u) * np.cos(t),
    )
    q = prolong_section(samples, (3, 11))
    t, u = samples.ts[3], samples.us[11]
    assert q.point.v[0, 0] == pytest.approx(-np.sin(2 * np.pi * u) * np.sin(t), abs=1e-12)
    assert q.w[0, 0, 0] == pytest.approx(-np.sin(2 * np.pi * u) * np.cos(t), abs=1e-12)
    # mixed derivative: d/du of ydot
    assert q.w[0, 0, 1] == pytest.approx(
        -2 * np.pi * np.cos(2 * np.pi * u) * np.sin(t), abs=1e-6
    )
    assert np.allclose(q.w, np.swapaxes(q.w, 1, 2))


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
    # centered finite-difference tangents of j1(phi) along the section
    # annihilate the contact forms at 2nd order in the step
    def phi_fn(t, u):
        return np.sin(2 * np.pi * u) * np.cos(3 * t)

    samples = make_samples(
        phi_fn,
        Nu=128,
        ydot=lambda t, u: -3 * np.sin(2 * np.pi * u) * np.sin(3 * t),
    )
    base = prolong_section(samples, (2, 20))
    residuals = []
    for s in (2, 1):
        qp = prolong_section(samples, (2, 20 + s))
        qm = prolong_section(samples, (2, 20 - s))
        du = samples.us[20 + s] - samples.us[20 - s]
        tangent = TangentVector(
            np.array([0.0, 1.0]),
            (qp.point.y - qm.point.y) / du,
            (qp.point.v - qm.point.v) / du,
        )
        residuals.append(np.abs(contact_eval(base.point, tangent)).max())
    assert residuals[1] < 0.3 * residuals[0]  # ~4x reduction when halving
    assert residuals[1] < 5e-3


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


def test_holonomy_defect_flags_inconsistent_time_slices():
    from nhfields.jet import mixed_partial_defect

    ts = np.arange(5) * 1e-2
    us = np.arange(32) / 32
    T, U = np.meshgrid(ts, us, indexing="ij")
    y = (np.sin(2 * np.pi * U) * np.cos(T))[..., None]
    good = SectionSamples(ts, us, y, ydot=(-np.sin(2 * np.pi * U) * np.sin(T))[..., None])
    bad = SectionSamples(ts, us, y, ydot=np.ones_like(y))
    assert mixed_partial_defect(good) < 1e-3
    assert mixed_partial_defect(bad) > 0.1


def test_nonuniform_grid_rejected():
    us = np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.7, 0.85])
    y = np.zeros((3, 7, 1))
    with pytest.raises(InvalidArgumentError):
        SectionSamples(np.arange(3) * 0.1, us, y)
