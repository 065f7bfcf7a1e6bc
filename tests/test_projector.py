"""Constraint distribution, compatibility, and projector invariants."""

import numpy as np
import pytest

from nhfields.constraint import chetaev_coefficients, make_constraint
from nhfields.exceptions import CompatibilityError, RegularityError
from nhfields.exterior import TangentVector
from nhfields.fluid import FluidParams, fluid_lagrangian, fluid_quantities
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import derivative_bundle, make_model
from nhfields.projector import (
    build_projectors,
    compatibility_matrix,
    solve_zeta,
    zeta_residual,
)

from helpers import fluid_constraint_point, wave_on_constraint_point


def wave_setup(rng, speed=2.0):
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": speed})
    p = wave_on_constraint_point(rng, speed)
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    return model, spec, p, bundle, C


def test_zeta_wave_hand_value():
    # H = diag(1, -1), C = (1, -2): zeta = (1, 2)
    rng = np.random.default_rng(0)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    assert np.allclose(zb.zeta[0], [[1.0, 2.0]])


def test_zeta_identity_hessian():
    model = make_model("quadratic", {"n": 1, "m": 1})
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(1))
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    zb = solve_zeta(bundle, C)
    assert np.allclose(zb.zeta[0], np.swapaxes(C, 1, 2)[0])


def test_zeta_defining_identity_on_random_tuples():
    rng = np.random.default_rng(2)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    resid = zeta_residual(bundle, C, zb, p, rng=rng, tuples=20)
    assert resid < 1e-9


def test_zeta_singular_hessian_raises():
    from nhfields.lagrangian import LagrangianModel

    def fn(x, y, v):
        return 0.5 * v[0][0] * v[0][0]

    model = LagrangianModel("degenerate", Dims(1, 1), fn)
    p = wave_on_constraint_point(np.random.default_rng(3))
    bundle = derivative_bundle(model, p)
    with pytest.raises(RegularityError):
        solve_zeta(bundle, np.array([[[1.0], [-2.0]]]))


@pytest.mark.parametrize("speed,expected", [
    (0.0, True), (0.5, True), (-0.5, True),
    (1.0, False), (-1.0, False), (2.0, True), (-2.0, True),
])
def test_compatibility_classification(speed, expected):
    # f = zeta(phi) = 1 - speed^2 for the wave scenario
    rng = np.random.default_rng(4)
    _, spec, p, bundle, C = wave_setup(rng, speed)
    zb = solve_zeta(bundle, C)
    comp = compatibility_matrix(zb.zeta, spec.derivatives(p)[2])
    assert comp["compatible"] == expected
    assert comp["det"] == pytest.approx(1.0 - speed**2, abs=1e-12)


def test_fluid_compatibility_scalar_is_f():
    params = FluidParams()
    spec = make_constraint("incompressibility")
    p = fluid_constraint_point(np.random.default_rng(5))
    q = fluid_quantities(params, p)
    bundle = derivative_bundle(fluid_lagrangian(params), p)
    zb = solve_zeta(bundle, chetaev_coefficients(spec, p))
    comp = compatibility_matrix(zb.zeta, spec.derivatives(p)[2])
    assert comp["mmat"][0, 0] == pytest.approx(q["f"], rel=1e-12)
    assert comp["compatible"]


def test_projector_pair_invariants():
    rng = np.random.default_rng(6)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    pp = build_projectors(zb, spec, p)
    N = pp.P.shape[0]
    assert np.abs(pp.P + pp.Q - np.eye(N)).max() < 1e-12
    assert np.abs(pp.P @ pp.P - pp.P).max() < 1e-12
    assert np.abs(pp.Q @ pp.Q - pp.Q).max() < 1e-12
    assert np.abs(pp.P @ pp.Q).max() < 1e-12
    # P projects along zeta: P zeta = 0, Q zeta = zeta
    z = zb.dense()[0]
    assert np.abs(pp.P @ z).max() < 1e-12
    assert np.abs(pp.Q @ z - z).max() < 1e-12
    # image of P annihilated by dphi
    for _ in range(10):
        w = rng.uniform(-1, 1, N)
        assert np.abs(pp.dphi @ (pp.P @ w)).max() < 1e-12


def test_projector_rank_and_image():
    rng = np.random.default_rng(7)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    pp = build_projectors(zb, spec, p)
    svals = np.linalg.svd(pp.P, compute_uv=False)
    assert int(np.sum(svals > 1e-9)) == 4  # N - k = 5 - 1
    qs = np.linalg.svd(pp.Q, compute_uv=False)
    assert int(np.sum(qs > 1e-9)) == 1
    # the image of Q is the zeta line
    img = pp.Q @ rng.uniform(-1, 1, (5, 3))
    z = zb.dense()[0]
    for col in img.T:
        cross = col - (col @ z) / (z @ z) * z
        assert np.abs(cross).max() < 1e-12


def test_incompatible_point_raises():
    rng = np.random.default_rng(8)
    _, spec, p, bundle, C = wave_setup(rng, speed=1.0)
    zb = solve_zeta(bundle, C)
    with pytest.raises(CompatibilityError):
        build_projectors(zb, spec, p)


def test_distribution_meets_tc_trivially_when_compatible():
    # if sum c_alpha zeta_alpha annihilates all dphi then c = 0: with k = 1
    # this is just m != 0, checked via a least-squares argument on a 2-field
    # example with k = 2
    from nhfields.constraint import ConstraintSpec
    from nhfields.lagrangian import LagrangianModel

    def L(x, y, v):
        total = 0.0
        for a in range(2):
            for mu in range(2):
                total = total + 0.5 * v[a][mu] * v[a][mu]
        return total

    def phi1(x, y, v):
        return v[0][0] - 0.5 * v[1][1]

    def phi2(x, y, v):
        return v[1][0] + 0.25 * v[0][1]

    model = LagrangianModel("2field", Dims(1, 2), L)
    spec = ConstraintSpec(Dims(1, 2, 2), [phi1, phi2])
    rng = np.random.default_rng(9)
    v = rng.uniform(-1, 1, (2, 2))
    v[0, 0] = 0.5 * v[1, 1]
    v[1, 0] = -0.25 * v[0, 1]
    p = JetPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), v)
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    zb = solve_zeta(bundle, C)
    comp = compatibility_matrix(zb.zeta, spec.derivatives(p)[2])
    assert comp["compatible"]
    dphi_v = spec.derivatives(p)[2].reshape(2, -1)
    # least squares: c . zeta in ker dphi implies c = 0
    A = dphi_v @ zb.zeta.reshape(2, -1).T  # (k, k) action on coefficients
    c, *_ = np.linalg.lstsq(A, np.zeros(2), rcond=None)
    assert np.abs(c).max() < 1e-12
    assert abs(np.linalg.det(A)) > 1e-10

    pp = build_projectors(zb, spec, p)
    # dim ker Q = N - k and invariants hold for k = 2 as well
    qs = np.linalg.svd(pp.Q, compute_uv=False)
    assert int(np.sum(qs > 1e-9)) == 2
    assert np.abs(pp.P @ pp.P - pp.P).max() < 1e-11


def test_fluid_closed_form_projector_matches_generic():
    params = FluidParams()
    spec = make_constraint("incompressibility")
    model = fluid_lagrangian(params)
    rng = np.random.default_rng(10)
    for _ in range(5):
        p = fluid_constraint_point(rng)
        q = fluid_quantities(params, p)
        bundle = derivative_bundle(model, p)
        C = chetaev_coefficients(spec, p)
        zb = solve_zeta(bundle, C)
        pp = build_projectors(zb, spec, p)
        assert np.abs(pp.P - q["P"]).max() < 1e-9
        assert np.abs(zb.zeta[0] - q["zeta"]).max() < 1e-9
