"""Constraint distribution, compatibility, and projector invariants."""

import numpy as np
import pytest

from nhfields.constraint import chetaev_coefficients, make_constraint
from nhfields import projector
from nhfields.exceptions import (
    CompatibilityError,
    InternalConsistencyError,
    RegularityError,
    raise_first,
)
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

from helpers import (
    fluid_constraint_point,
    oracle_scenario,
    wave_on_constraint_point,
    zeta_identity_oracle,
)


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


@pytest.mark.parametrize("name", ["wave", "fluid", "two-fields"])
def test_zeta_check_matches_the_term_list_oracle_on_a_perturbed_zeta(name):
    """The kernel check against Form.contract where the identity is broken
    at O(0.1), so a wrong slot or sign cannot hide under round-off."""
    rng = np.random.default_rng(13)
    model, spec, p = oracle_scenario(name, rng)
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    zeta = solve_zeta(bundle, C).zeta
    bad = projector.ZetaBasis(zeta + 0.1 * rng.uniform(-1, 1, zeta.shape))
    got = zeta_residual(bundle, C, bad, p, np.random.default_rng(3), tuples=20)
    want = zeta_identity_oracle(bundle, C, bad, p, np.random.default_rng(3), tuples=20)
    assert want > 1e-2
    assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_a_singular_hessian_stops_only_its_point_of_a_zeta_batch():
    """np.linalg.solve stops a whole batch at one singular matrix; the batch
    keeps the pointwise bits of every other point and returns the error of
    the singular one, which raise_first names by its grid point."""
    rng = np.random.default_rng(3)
    H = rng.uniform(-1, 1, (3, 2, 2))
    H[1] = [[1.0, 0.0], [0.0, 0.0]]
    C = rng.uniform(-1, 1, (3, 1, 2, 1))
    zeta, errors = projector.solve_zeta_flat(H, C)
    assert list(errors) == [(1,)]
    assert str(errors[(1,)]) == "Hessian is singular in the zeta solve: Singular matrix"
    for i in (0, 2):
        one, none = projector.solve_zeta_flat(H[i], C[i])
        assert np.array_equal(zeta[i], one) and none == {}
    with pytest.raises(RegularityError, match=r"^at grid point \(1,\): Hessian is singular "
                                              r"in the zeta solve: Singular matrix$"):
        raise_first(errors)
    with pytest.raises(RegularityError, match="^Hessian is singular in the zeta solve: Singular"):
        raise_first(projector.solve_zeta_flat(H[1], C[1])[1])


@pytest.mark.parametrize("name", ["wave", "fluid", "coupled"])
def test_batched_checks_equal_the_pointwise_ones_bitwise(name):
    """zeta_residual_batch and projector_pairs over stacked points give the
    bits of their pointwise forms, zeta_residual and build_projectors."""
    from helpers import bundle_at
    from nhfields.lagrangian import derivative_bundle_arrays

    rng = np.random.default_rng(13)
    scenarios = [oracle_scenario(name, rng) for _ in range(4)]
    model, spec = scenarios[0][:2]
    points = [s[2] for s in scenarios]
    cps = [spec.at(p) for p in points]
    v = np.stack([p.v for p in points])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in points]),
                                      np.stack([p.y for p in points]), v)
    coeffs, dphi = np.stack([cp.coeffs for cp in cps]), np.stack([cp.dphi for cp in cps])
    zeta, errors = projector.solve_zeta_flat(projector.hessian_flat(bundle), coeffs)
    assert errors == {}
    vecs = rng.uniform(-1, 1, (4, 7, v.shape[-1], dphi.shape[-1]))
    resid = projector.zeta_residual_batch(bundle, coeffs, zeta, v, vecs)
    comp = compatibility_matrix(zeta, np.stack([cp.dphidv for cp in cps]))
    pairs, errors = projector.projector_pairs(zeta, dphi, comp)
    assert errors == {}
    for i, (p, cp) in enumerate(zip(points, cps)):
        zb = solve_zeta(bundle_at(bundle, i), cp.coeffs)
        assert np.array_equal(zb.zeta, zeta[i])

        class Replay:  # hands the pointwise check the batch's tuples
            def uniform(self, low, high, size):
                assert size == vecs[i].shape
                return vecs[i]

        assert zeta_residual(bundle_at(bundle, i), cp.coeffs, zb, p, Replay(), 7) == resid[i]
        pp = build_projectors(zb, cp)
        for field in ("P", "Q", "Lam", "zeta", "dphi"):
            assert np.array_equal(getattr(pp, field), getattr(pairs, field)[i])


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
    comp = compatibility_matrix(zb.zeta, spec.dphidv_arrays(p.x, p.y, p.v))
    assert comp["compatible"] == expected
    assert comp["det"] == pytest.approx(1.0 - speed**2, abs=1e-12)


def test_fluid_compatibility_scalar_is_f():
    params = FluidParams()
    spec = make_constraint("incompressibility")
    p = fluid_constraint_point(np.random.default_rng(5))
    q = fluid_quantities(params, p)
    bundle = derivative_bundle(fluid_lagrangian(params), p)
    zb = solve_zeta(bundle, chetaev_coefficients(spec, p))
    comp = compatibility_matrix(zb.zeta, spec.dphidv_arrays(p.x, p.y, p.v))
    assert comp["mmat"][0, 0] == pytest.approx(q["f"], rel=1e-12)
    assert comp["compatible"]


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_the_compatibility_verdict_does_not_depend_on_the_scale(scale):
    """The quadratic model under linear transport with the constant
    coefficients (c, c) has zeta = (c, c) against dphi/dv = (1, -2), so
    mmat = -c: compatible, with condition number sqrt(10) relative to the
    entries at any c, and neither norm over- or underflows (pytest turns a
    RuntimeWarning into an error)."""
    comp = compatibility_matrix(np.full((1, 1, 2), scale), np.array([[[1.0, -2.0]]]))
    assert comp["compatible"]
    assert comp["cond"] == pytest.approx(np.sqrt(10.0), rel=1e-15)


def test_a_one_by_one_compatibility_matrix_has_the_verdict_of_its_svd():
    """For k = 1 the smallest singular value is |mmat|, taken without an SVD:
    on 10^5 random points with entries from 1e-150 to 1e150 (so mmat spans
    1e+-300), some near the tolerance, some exactly orthogonal or zero, the
    verdict is the one the SVD gives, and |mmat| differs from the SVD by at
    most one ulp, only where the decimal exponent is past +-138.  A NaN
    entry, on which the SVD raises, is not compatible."""
    rng = np.random.default_rng(12)
    B = 10**5
    scale = 10.0 ** rng.uniform(-150, 150, (2, B, 1, 1, 1))
    zeta, dphidv = rng.uniform(-1, 1, (2, B, 1, 2, 2)) * scale
    # near the tolerance: dphi orthogonal to zeta plus eps zeta, eps in 1e-14..1e-6
    near = slice(0, B // 4)
    ortho = zeta[near][..., ::-1, :] * np.array([[[1.0], [-1.0]]])
    eps = 10.0 ** rng.uniform(-14, -6, (B // 4, 1, 1, 1)) * scale[1, near] / scale[0, near]
    dphidv[near] = ortho * scale[1, near] / scale[0, near] + eps * zeta[near]
    dphidv[-10:] = zeta[-10:][..., ::-1, :] * np.array([[[1.0], [-1.0]]])  # mmat = 0
    zeta[-20:-10] = 0.0
    comp = compatibility_matrix(zeta, dphidv)
    mmat = comp["mmat"][..., 0, 0]
    svd = np.linalg.svd(comp["mmat"], compute_uv=False)[..., 0]
    ulps = np.abs(svd.view(np.int64) - np.abs(mmat).view(np.int64))
    assert ulps.max() <= 1
    assert np.all(np.abs(np.log10(svd[ulps > 0])) > 138)
    zn, dn = (np.max(projector._norms(a.reshape(B, 1, -1)), axis=-1) for a in (zeta, dphidv))
    rel = np.divide(svd, zn, out=np.zeros(B), where=svd > 0)
    assert np.array_equal(comp["compatible"], rel > 1e-10 * dn)
    assert 0 < comp["compatible"][near].sum() < B // 4
    assert not comp["compatible"][-20:].any()
    zeta[:3, 0, 0, 0] = np.nan
    with np.errstate(invalid="ignore"):  # np.linalg.det of a NaN
        comp = compatibility_matrix(zeta[:5], dphidv[:5])
    assert not comp["compatible"][:3].any() and np.all(comp["cond"][:3] == np.inf)


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_a_zero_or_nan_compatibility_scalar_fails_before_any_inverse(value):
    zeta = np.zeros((3, 1, 1, 2))
    zeta[..., 0] = 1.0
    dphidv = np.zeros((3, 1, 1, 2))
    dphidv[..., 0] = 2.0
    dphidv[1, ..., 0] = value  # mmat = zeta . dphi = 0 or NaN at point 1
    with np.errstate(invalid="ignore"):  # np.linalg.det of a singular or NaN matrix
        comp = compatibility_matrix(zeta, dphidv)
    assert comp["compatible"].tolist() == [True, False, True]
    with np.errstate(all="raise"), pytest.raises(  # an inverse of 0 would raise LinAlgError
            CompatibilityError, match=r"at grid point \(1,\)"):
        projector.multiplier_matrix(comp)


def test_projector_pair_invariants():
    rng = np.random.default_rng(6)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    pp = build_projectors(zb, spec.at(p))
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
    pp = build_projectors(zb, spec.at(p))
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
        build_projectors(zb, spec.at(p))


def test_an_ill_conditioned_compatibility_matrix_is_a_compatibility_error():
    # near-characteristic speed: the verdict at tol 1e-16 accepts a matrix
    # whose condition number, about 1e12, breaks P^2 = P far past 1e-9
    rng = np.random.default_rng(8)
    _, spec, p, bundle, C = wave_setup(rng, speed=1.000000000001)
    zb = solve_zeta(bundle, C)
    cp = spec.at(p)
    comp = compatibility_matrix(zb.zeta, cp.dphidv, tol=1e-16)
    assert comp["compatible"] and comp["cond"] > 1e11
    with pytest.raises(CompatibilityError, match="condition number"):
        build_projectors(zb, cp, comp=comp)


def test_a_broken_invariant_at_a_well_conditioned_point_is_an_internal_error(
        monkeypatch):
    rng = np.random.default_rng(8)
    _, spec, p, bundle, C = wave_setup(rng)
    zb = solve_zeta(bundle, C)
    cp = spec.at(p)
    comp = compatibility_matrix(zb.zeta, cp.dphidv)
    assert comp["cond"] < 10
    real = projector.multiplier_matrix
    monkeypatch.setattr(projector, "multiplier_matrix", lambda c: 2.0 * real(c))
    with pytest.raises(InternalConsistencyError, match="projector invariant"):
        build_projectors(zb, cp, comp=comp)


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
    comp = compatibility_matrix(zb.zeta, spec.dphidv_arrays(p.x, p.y, p.v))
    assert comp["compatible"]
    dphi_v = spec.dphidv_arrays(p.x, p.y, p.v).reshape(2, -1)
    # least squares: c . zeta in ker dphi implies c = 0
    A = dphi_v @ zb.zeta.reshape(2, -1).T  # (k, k) action on coefficients
    c, *_ = np.linalg.lstsq(A, np.zeros(2), rcond=None)
    assert np.abs(c).max() < 1e-12
    assert abs(np.linalg.det(A)) > 1e-10

    pp = build_projectors(zb, spec.at(p))
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
        pp = build_projectors(zb, spec.at(p))
        assert np.abs(pp.P - q["P"]).max() < 1e-9
        assert np.abs(zb.zeta[0] - q["zeta"]).max() < 1e-9
