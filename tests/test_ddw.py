"""Free/constrained De Donder-Weyl solvers and field-equation residuals."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nhfields import autodiff as ad
from nhfields.constraint import (
    ConstraintPoint,
    ConstraintSpec,
    chetaev_coefficients,
    make_constraint,
)
from nhfields.ddw import (
    ConnectionCoeffs,
    DdwSolution,
    el_residual,
    min_check_tuples,
    nh_ddw_residual,
    nh_ddw_residual_batch,
    nh_field_residual,
    project_connection,
    solve_constrained_ddw,
    solve_ddw,
    solve_free_ddw,
)
from nhfields.exceptions import (
    DdwSolveError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    NhfieldsError,
    raise_first,
)
from nhfields.jet import Dims, Jet2Point, JetPoint
from nhfields.lagrangian import (
    LagrangianModel,
    derivative_bundle,
    derivative_bundle_arrays,
    make_model,
    regularity_check,
)
from nhfields.projector import (
    build_projectors,
    compatibility_matrix,
    dense_rows,
    projector_pairs,
    solve_zeta,
)

from helpers import (
    bundle_at,
    form_check_oracle,
    oracle_scenario,
    random_point,
    wave_on_constraint_point,
    writable_copy,
)


def wave_jet2(x0, x1, y_fn):
    """Second-order jet data of y(t, x) from callables returning analytic
    derivatives: y_fn(t, x) -> (y, [y_t, y_x], [[y_tt, y_tx], [y_xt, y_xx]])."""
    y, dy, d2y = y_fn(x0, x1)
    return Jet2Point(
        JetPoint([x0, x1], [y], [dy]), np.asarray(d2y, dtype=float)[None]
    )


def free_residual(bundle, p, sol, **kw):
    """Form residual of a free solution: the membership check with k = 0."""
    return nh_ddw_residual(bundle, ConstraintPoint.unconstrained(p), sol,
                           **kw)["form_residual"]


def test_free_wave_min_norm_is_zero():
    model = make_model("wave")
    p = random_point(np.random.default_rng(0), 1, 1)
    bundle = derivative_bundle(model, p)
    sol = solve_free_ddw(bundle, p.v)
    assert np.allclose(sol.coeffs.Gamma, p.v)
    assert np.allclose(sol.coeffs.Gamma2, 0.0)
    assert free_residual(bundle, p, sol) < 1e-12


def test_free_wave_pinned_gives_wave_equation():
    model = make_model("wave")
    p = random_point(np.random.default_rng(1), 1, 1)
    s = 0.73
    bundle = derivative_bundle(model, p)
    sol = solve_free_ddw(bundle, p.v, fixed_spatial=np.array([[[0.0, s]]]))
    # Gamma_00 = Gamma_11 = s (y_tt = y_xx), Gamma_01 free -> 0 by min norm
    assert sol.coeffs.Gamma2[0, 0, 0] == pytest.approx(s)
    assert sol.coeffs.Gamma2[0, 0, 1] == pytest.approx(0.0)
    assert free_residual(bundle, p, sol) < 1e-12


def test_free_solution_with_sources_matches_lstsq_oracle():
    # L = v^2/2 + y v0 brings dLdy and d2Ldydv into the equations
    model = make_model("quadratic", {"n": 1, "m": 1, "coupling": 1.0})
    p = random_point(np.random.default_rng(2), 1, 1)
    b = derivative_bundle(model, p)
    sol = solve_free_ddw(b, p.v)
    # independent dense assembly of the same linear system
    A = np.zeros((1, 4))
    for bb in range(1):
        for tau in range(2):
            for nu in range(2):
                A[0, 2 * tau + nu] = b.H[bb, tau, 0, nu]
    R = b.dLdy - np.einsum("tat->a", b.d2Ldxdv) - np.einsum(
        "bt,bat->a", p.v, b.d2Ldydv
    )
    want, *_ = np.linalg.lstsq(A, R, rcond=None)
    assert np.allclose(sol.coeffs.Gamma2.reshape(-1), want, atol=1e-9)
    assert free_residual(b, p, sol) < 1e-9


def test_free_ddw_form_identity_many_points():
    model = make_model("wave")
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_point(rng, 1, 1)
        bundle = derivative_bundle(model, p)
        sol = solve_free_ddw(bundle, p.v)
        assert free_residual(bundle, p, sol, rng=rng, tuples=20) < 1e-9


def test_projection_hand_example():
    """phi = v0 - 2 v1, zeta = (1, 2), f = -3; the free coefficients
    Gamma2 = [[1, 0], [0, 1]] project to Gamma'_00 = 4/3, Gamma'_01 = 2/3
    with lambda_0 = -1/3 and exact tangency."""
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(4))
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    zb = solve_zeta(bundle, cp.coeffs)
    pp = build_projectors(zb, cp)
    free = DdwSolution(
        ConnectionCoeffs(p.v.copy(), np.array([[[1.0, 0.0], [0.0, 1.0]]])),
        np.zeros((0, 2)),
    )
    proj = project_connection(free, pp)
    # first-order block untouched: the correction is jet-vertical
    assert np.array_equal(proj.coeffs.Gamma, p.v)
    assert proj.multipliers[0, 0] == pytest.approx(-1.0 / 3.0)
    assert proj.coeffs.Gamma2[0, 0, 0] == pytest.approx(4.0 / 3.0)
    assert proj.coeffs.Gamma2[0, 0, 1] == pytest.approx(2.0 / 3.0)
    # tangency: Gamma'_00 - 2 Gamma'_01 = 0
    res = nh_ddw_residual(bundle, cp, proj)
    assert res["tangency_residual"] < 1e-12
    assert res["form_residual"] < 1e-12
    assert res["lam_gap"] < 1e-12


def test_projection_of_already_tangent_solution_is_identity():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(5))
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    zb = solve_zeta(bundle, C)
    pp = build_projectors(zb, spec.at(p))
    # Gamma2 with dphi(H_mu) = 0: rows satisfy g_mu0 = 2 g_mu1
    G2 = np.array([[[2.0, 1.0], [0.8, 0.4]]])
    free = DdwSolution(ConnectionCoeffs(p.v.copy(), G2), np.zeros((0, 2)))
    proj = project_connection(free, pp)
    assert np.allclose(proj.multipliers, 0.0, atol=1e-14)
    assert np.allclose(proj.coeffs.Gamma2, G2)


def test_projected_solution_passes_membership_and_lambda_match():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(6)
    for _ in range(5):
        p = wave_on_constraint_point(rng)
        bundle = derivative_bundle(model, p)
        cp = spec.at(p)
        zb = solve_zeta(bundle, cp.coeffs)
        pp = build_projectors(zb, cp)
        free = solve_free_ddw(bundle, p.v, fixed_spatial=rng.uniform(-1, 1, (1, 1, 2)))
        proj = project_connection(free, pp)
        res = nh_ddw_residual(bundle, cp, proj, rng=rng)
        assert res["form_residual"] < 1e-8
        assert res["tangency_residual"] < 1e-10
        # form-level agreement; raw coefficients differ by the kernel of the
        # wedge map for n = 1
        assert res["lam_gap"] < 1e-8


def test_membership_residual_detects_corruption():
    """For m = 1, k = 1 the multiplier refit absorbs any second-order
    corruption (the wedge columns span the one-dimensional equation space),
    so sensitivity shows up (a) through the first-order block for the wave
    and (b) through an unconstrained field when m >= 2."""
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(7)
    p = wave_on_constraint_point(rng)
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    zb = solve_zeta(bundle, cp.coeffs)
    pp = build_projectors(zb, cp)
    free = solve_free_ddw(bundle, p.v)
    proj = project_connection(free, pp)
    # (a) corrupt the first-order block: semi-holonomicity breaks and the
    # extra dv-wedge components cannot be matched by any multiplier
    G = proj.coeffs.Gamma.copy()
    G[0, 0] += 0.1
    bad = DdwSolution(ConnectionCoeffs(G, proj.coeffs.Gamma2), proj.multipliers)
    res = nh_ddw_residual(bundle, cp, bad, rng=rng)
    assert res["form_residual"] > 1e-3

    # (b) two fields, constraint on the first only: corrupting the second
    # field's coefficients is visible through the form residual
    from nhfields.constraint import ConstraintSpec

    model2 = make_model("quadratic", {"n": 1, "m": 2})

    def phi(x, y, v):
        return v[0][0] - 2.0 * v[0][1]

    spec2 = ConstraintSpec(Dims(1, 2, 1), [phi])
    v = rng.uniform(-1, 1, (2, 2))
    v[0, 0] = 2.0 * v[0, 1]
    p2 = JetPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), v)
    bundle2 = derivative_bundle(model2, p2)
    cp2 = spec2.at(p2)
    sol2 = solve_constrained_ddw(bundle2, cp2)
    res_ok = nh_ddw_residual(bundle2, cp2, sol2, rng=rng)
    assert res_ok["form_residual"] < 1e-9
    G2 = sol2.coeffs.Gamma2.copy()
    G2[1, 0, 0] += 0.1
    bad2 = DdwSolution(ConnectionCoeffs(sol2.coeffs.Gamma, G2), sol2.multipliers)
    res_bad = nh_ddw_residual(bundle2, cp2, bad2, rng=rng)
    assert res_bad["form_residual"] > 1e-3


@pytest.mark.parametrize("name", ["wave", "fluid", "two-fields"])
@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("pinned", [False, True])
def test_membership_check_matches_the_term_list_oracle_on_corrupted_solutions(
        name, constrained, pinned):
    """The kernel check against the term lists where the residuals are
    O(0.1): the first- and second-order blocks of the solution are both
    perturbed (for m = 1 the multiplier fit absorbs a second-order error
    alone), so a wrong sign or slot cannot hide under round-off."""
    rng = np.random.default_rng(12)
    model, spec, p = oracle_scenario(name, rng)
    m, nx = p.v.shape
    bundle = derivative_bundle(model, p)
    cp = spec.at(p) if constrained else ConstraintPoint.unconstrained(p)
    fixed = rng.uniform(-1, 1, (m, nx - 1, nx)) if pinned else None
    sol = solve_constrained_ddw(bundle, cp, fixed)
    bad = DdwSolution(
        ConnectionCoeffs(sol.coeffs.Gamma + 0.1 * rng.uniform(-1, 1, (m, nx)),
                         sol.coeffs.Gamma2 + 0.1 * rng.uniform(-1, 1, (m, nx, nx))),
        sol.multipliers)
    got = nh_ddw_residual(bundle, cp, bad, np.random.default_rng(3), tuples=20)
    want = form_check_oracle(bundle, cp, bad, np.random.default_rng(3), tuples=20)
    assert got["form_residual"] > 1e-2
    if constrained:
        assert want["lam_gap"] > 1e-2
    for key in ("form_residual", "lam_fit", "lam_gap"):
        # relative to the largest entry: a multiplier the constraint leaves
        # at zero is round-off on both sides
        scale = np.max(np.abs(want[key]), initial=0.0)
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-9 * scale,
                                   err_msg=key)


def test_membership_check_needs_more_tuples_than_multipliers():
    """On k(n+1) tuples or fewer the fitted multipliers can absorb any
    error, so the check refuses to run; one tuple more already sees the
    corrupted first-order block of test_membership_residual_detects_corruption."""
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(7))
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    zb = solve_zeta(bundle, cp.coeffs)
    proj = project_connection(solve_free_ddw(bundle, p.v), build_projectors(zb, cp))
    G = proj.coeffs.Gamma.copy()
    G[0, 0] += 0.1
    bad = DdwSolution(ConnectionCoeffs(G, proj.coeffs.Gamma2), proj.multipliers)
    for tuples in (0, 1, 2):  # k(n+1) = 2
        with pytest.raises(InvalidArgumentError, match="is below"):
            nh_ddw_residual(bundle, cp, bad, tuples=tuples)
    assert nh_ddw_residual(bundle, cp, bad, tuples=3)["form_residual"] > 1e-3
    # the free check fits nothing, but still needs a tuple
    with pytest.raises(InvalidArgumentError, match="is below"):
        free_residual(bundle, p, proj, tuples=0)


def test_constrained_direct_solve_unpinned():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(8)
    p = wave_on_constraint_point(rng)
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    sol = solve_constrained_ddw(bundle, cp)
    res = nh_ddw_residual(bundle, cp, sol, rng=rng)
    assert res["form_residual"] < 1e-8
    assert res["lam_gap"] < 1e-8
    assert res["tangency_residual"] < 1e-10


def test_constrained_pinned_example():
    """Pinned Gamma_10 = 0, Gamma_11 = 1: the imposed rows (form equation
    and temporal tangency) are satisfied; the spatial tangency row is fixed
    by the pinned data at -2 and is reported, not imposed."""
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(9))
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    sol = solve_constrained_ddw(bundle, cp, fixed_spatial=np.array([[[0.0, 1.0]]]))
    g = sol.coeffs.Gamma2[0]
    lam = sol.multipliers[0]
    # form equation: -Gamma_00 + Gamma_11 = lam_0 - 2 lam_1
    assert -g[0, 0] + g[1, 1] == pytest.approx(lam[0] - 2 * lam[1], abs=1e-12)
    # temporal tangency imposed
    assert g[0, 0] - 2 * g[0, 1] == pytest.approx(0.0, abs=1e-12)
    # spatial tangency fixed by the pin
    assert g[1, 0] - 2 * g[1, 1] == pytest.approx(-2.0)
    res = nh_ddw_residual(bundle, cp, sol)
    assert res["form_residual"] < 1e-8
    assert res["lam_gap"] < 1e-8
    assert res["tangency_residual"] == pytest.approx(2.0)


def test_constrained_k0_reduces_to_free():
    model = make_model("wave")
    p = random_point(np.random.default_rng(10), 1, 1)
    bundle = derivative_bundle(model, p)
    sol = solve_constrained_ddw(bundle, ConstraintPoint.unconstrained(p))
    free = solve_free_ddw(bundle, p.v)
    assert np.allclose(sol.coeffs.Gamma2, free.coeffs.Gamma2)


def test_a_fluid_in_gravity_passes_every_check_of_the_chain():
    """L_fluid - g y^3 with g = 1 reads y, so its De Donder-Weyl solves are
    not zero, and the fluid's H[b, nu, a, mu] differs from H[b, mu, a, nu]:
    the solve must pair Gamma2[b, mu, nu] with the first, as the lift
    H_mu = d_mu + ... + Gamma2[a, mu, nu] d/dv^a_nu does."""
    from nhfields import cli, verify

    fluid = make_model("fluid")
    model = LagrangianModel("fluid-gravity", fluid.dims,
                            lambda x, y, v: fluid.fn(x, y, v) - 1.0 * y[2])
    spec = make_constraint("incompressibility")
    tols = cli.DEFAULT_TOLERANCES
    pts = cli.sample_constraint_point(model, spec, np.random.default_rng(1), 20)
    checks = verify.verify_points(model, spec, pts, np.random.default_rng(2), tols, 20)
    assert [verify.first_failure(entry, i, tols) for i, entry in enumerate(checks)] == [None] * 20


def _linear(coeffs, terms):
    """sum_j coeffs[j] terms[j], over generic scalars."""
    return sum(c * t for c, t in zip(coeffs, terms))


def random_model_and_constraint(rng, n: int, m: int, k: int):
    """L = 1/2 v^T A v + sum B v y + sum E v x with A symmetric and regular,
    and k constraints linear in v with y-dependent coefficients plus a
    quadratic term; v is read flat, index a(n+1) + mu."""
    size = m * (n + 1)
    q = np.linalg.qr(rng.normal(size=(size, size)))[0]
    eig = rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 2.0, size)  # A = q diag(eig) q^T
    B, E = rng.uniform(-1.0, 1.0, (size, m)), rng.uniform(-1.0, 1.0, (size, n + 1))
    C, D = rng.uniform(-1.0, 1.0, (2, k, size))
    quad = rng.uniform(-0.3, 0.3, (k, 2))
    pairs = rng.integers(0, size, (k, 2))

    def fn(x, y, v):
        flat = [va for row in v for va in row]
        modes = [_linear(q[:, r], flat) for r in range(size)]
        return (0.5 * _linear(eig, [w * w for w in modes])
                + _linear(flat, [_linear(B[j], y) + _linear(E[j], x) for j in range(size)]))

    def constraint(alpha):
        def phi(x, y, v):
            flat = [va for row in v for va in row]
            coeffs = [C[alpha, j] + D[alpha, j] * ad.sin(y[j % m]) for j in range(size)]
            first, second = pairs[alpha]
            return (_linear(coeffs, flat) + quad[alpha, 0] * flat[first] * flat[second]
                    + quad[alpha, 1] * x[0])
        return phi

    return (LagrangianModel("random", Dims(n, m), fn),
            ConstraintSpec(Dims(n, m, k), [constraint(alpha) for alpha in range(k)]))


def random_scenario(n: int, m: int, data):
    """A random model and k <= m constraints, with the points of four draws
    whose Newton projection onto the constraint set converged."""
    from nhfields import cli

    k = data.draw(st.integers(1, m), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    model, spec = random_model_and_constraint(rng, n, m, k)
    pts = []
    for i in range(4):
        try:
            pts += cli.sample_constraint_point(model, spec, rng, 1, i)
        except NhfieldsError:
            pass
    return model, spec, pts, rng


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(n=st.integers(0, 2), m=st.integers(1, 3), data=st.data())
def test_the_chain_passes_at_every_regular_compatible_point_of_a_random_model(n, m, data):
    """Every check of the chain passes on random models whose De Donder-Weyl
    data is not zero, wherever a point is regular, compatible and stopped
    by no error."""
    from nhfields import cli, verify

    model, spec, pts, rng = random_scenario(n, m, data)
    tols = cli.DEFAULT_TOLERANCES
    checks = verify.verify_points(model, spec, pts, rng, tols,
                                  min_check_tuples(spec.k, n + 1) + 4)
    kept = [(i, entry) for i, entry in enumerate(checks)
            if isinstance(entry, dict) and entry["regular"] and entry["compatible"]]
    assume(kept)
    assert [verify.first_failure(entry, i, tols) for i, entry in kept] == [None] * len(kept)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(n=st.integers(0, 2), m=st.integers(1, 3), data=st.data())
def test_the_projectors_of_a_random_model_split_the_tangent_space(n, m, data):
    """At every regular, compatible point of a random model, P^2 = P,
    P + Q = I, dphi P = 0, Q zeta = zeta and rank Q = k, so range Q is span
    zeta, each to 1e-11 of its scale (the worst of 790 points over 200
    models is 2.5e-15), and no point stops at an InternalConsistencyError."""
    from nhfields import cli

    model, spec, pts, _ = random_scenario(n, m, data)
    tols = cli.DEFAULT_TOLERANCES
    checked = 0
    for p in pts:
        bundle = derivative_bundle(model, p)
        if not regularity_check(bundle)["regular"]:
            continue
        cp = spec.at(p)
        zeta = solve_zeta(bundle, cp.coeffs).zeta
        comp = compatibility_matrix(zeta, cp.dphidv, tols["compatibility"])
        if not comp["compatible"]:
            continue
        pp, errors = projector_pairs(zeta, cp.dphi, comp, tols["projector"])
        assert not any(isinstance(e, InternalConsistencyError) for e in errors.values())
        if errors:  # an ill-conditioned compatibility matrix
            continue
        Z, tol = dense_rows(zeta).T, 1e-11
        scale = max(1.0, np.linalg.norm(pp.Q, 2))
        assert np.abs(pp.P @ pp.P - pp.P).max() <= tol * scale**2
        assert np.abs(pp.P + pp.Q - np.eye(len(pp.P))).max() <= tol * scale
        assert np.abs(cp.dphi @ pp.P).max() <= tol * scale * np.abs(cp.dphi).max()
        assert np.abs(pp.Q @ Z - Z).max() <= tol * scale * np.abs(Z).max()
        assert np.linalg.matrix_rank(pp.Q) == spec.k
        checked += 1
    assume(checked)


@pytest.mark.parametrize("pinned", [False, True])
def test_an_asymmetric_quadratic_free_solve_passes_the_term_list_check(pinned):
    """n = 1, m = 2: L = 2 |v|^2 + v^0_0 v^1_1 + c v^0_1 y^1 has
    H[1, 1, 0, 0] = 1 but H[1, 0, 0, 1] = 0, and a nonzero right side, so
    a solve that pairs the Hessian with the wrong index of Gamma2 fails the
    form check of ``exterior.Form``, with or without a pinned spatial
    block."""
    def fn(x, y, v):
        total = v[0][0] * v[1][1] + 0.7 * (v[0][1] * y[1])
        for a in range(2):
            for mu in range(2):
                total = total + 2.0 * (v[a][mu] * v[a][mu])
        return total

    model = LagrangianModel("asymmetric", Dims(1, 2), fn)
    rng = np.random.default_rng(21)
    p = random_point(rng, 1, 2)
    bundle = derivative_bundle(model, p)
    cp = ConstraintPoint.unconstrained(p)
    sol = solve_free_ddw(bundle, p.v, rng.uniform(-1, 1, (2, 1, 2)) if pinned else None)
    want = form_check_oracle(bundle, cp, sol, np.random.default_rng(3), tuples=20)
    got = nh_ddw_residual(bundle, cp, sol, np.random.default_rng(3), tuples=20)
    assert want["form_residual"] < 1e-12
    assert got["form_residual"] < 1e-12


@pytest.mark.parametrize("name", ["wave", "fluid", "coupled"])
def test_batched_kernel_equals_the_pointwise_solves_bitwise(name):
    """solve_ddw on 8 stacked points gives the bits of the batch-of-one
    entry points at each point: free, pinned, and constrained (k = 2 for
    the coupled fields), each with and without a pinned spatial block."""
    rng = np.random.default_rng(21)
    scenarios = [oracle_scenario(name, rng) for _ in range(8)]
    model, spec = scenarios[0][:2]
    points = [s[2] for s in scenarios]
    v = np.stack([p.v for p in points])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in points]),
                                      np.stack([p.y for p in points]), v)
    cps = [spec.at(p) for p in points]
    constraint = (np.stack([cp.dphi for cp in cps]), np.stack([cp.coeffs for cp in cps]))
    m, nx = v.shape[-2:]
    for spatial in (None, rng.uniform(-1, 1, (8, m, nx - 1, nx))):
        for constrained in (False, True):
            block, lam, errors = solve_ddw(bundle, v, spatial,
                                           *(constraint if constrained else ()))
            assert errors == {}
            assert block.shape == (8, m, nx if spatial is None else 1, nx)
            for i, (p, cp) in enumerate(zip(points, cps)):
                fixed = None if spatial is None else spatial[i]
                sol = (solve_constrained_ddw(bundle_at(bundle, i), cp, fixed) if constrained
                       else solve_free_ddw(bundle_at(bundle, i), p.v, fixed))
                assert np.array_equal(sol.coeffs.Gamma2[:, : block.shape[2]], block[i])
                assert np.array_equal(sol.multipliers, lam[i])
                if fixed is not None:
                    assert np.array_equal(sol.coeffs.Gamma2[:, 1:], fixed)
            assert lam.shape == (8, spec.k if constrained else 0, nx)
    with pytest.raises(DimensionMismatchError, match="spatial block shape"):
        solve_ddw(bundle, v, np.zeros((8, m, nx, nx)))
    with pytest.raises(DimensionMismatchError, match="spatial block shape"):
        solve_free_ddw(bundle_at(bundle, 0), v[0], np.zeros((m, nx - 1, nx - 1)))


def test_a_point_batch_solve_collects_the_error_of_each_unsolved_point():
    """solve_ddw stops no batch: a point whose Hessian vanishes under a
    nonzero right side has no solution, its error is returned, and the
    others keep their bits; raise_first names its grid point."""
    rng = np.random.default_rng(8)
    points = [wave_on_constraint_point(rng) for _ in range(3)]
    v = np.stack([p.v for p in points])
    bundle = writable_copy(derivative_bundle_arrays(
        make_model("wave"), np.stack([p.x for p in points]), np.stack([p.y for p in points]), v))
    bundle.H[1] = 0.0
    bundle.dLdy[1] = 1.0
    block, lam, errors = solve_ddw(bundle, v)
    assert list(errors) == [(1,)]
    assert str(errors[(1,)]) == ("no solution for the De Donder-Weyl system: "
                                 "least-squares residual 1.000e+00")
    for i in (0, 2):
        assert np.array_equal(solve_free_ddw(bundle_at(bundle, i), v[i]).coeffs.Gamma2, block[i])
    with pytest.raises(DdwSolveError, match=r"^at grid point \(1,\): no solution for the "
                                            r"De Donder-Weyl system: least-squares"):
        raise_first(errors)
    with pytest.raises(DdwSolveError, match="^no solution for the De Donder-Weyl system: least"):
        solve_free_ddw(bundle_at(bundle, 1), v[1])


def mixed_model(b=0.5):
    """L = v0^2/2 + b v0 v1 - v1^2/2 on n = m = 1, whose Hessian couples the
    temporal and the spatial slot."""
    def fn(x, y, v):
        return 0.5 * (v[0][0] * v[0][0]) + b * (v[0][0] * v[0][1]) - 0.5 * (v[0][1] * v[0][1])
    return LagrangianModel("mixed", Dims(1, 1), fn)


def stacked_scenario(name, rng, count):
    """(bundle, v, dphi, coeffs) of ``count`` stacked points on the
    constraint set: the mixed Lagrangian under linear transport (k = 1), or
    the coupled quadratic fields (k = 2)."""
    if name == "mixed":
        model, spec = mixed_model(), make_constraint("linear-transport", {"speed": 2.0})
        points = [wave_on_constraint_point(rng) for _ in range(count)]
    else:
        scenarios = [oracle_scenario("coupled", rng) for _ in range(count)]
        (model, spec), points = scenarios[0][:2], [sc[2] for sc in scenarios]
    v = np.stack([p.v for p in points])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in points]),
                                      np.stack([p.y for p in points]), v)
    cps = [spec.at(p) for p in points]
    return bundle, v, np.stack([cp.dphi for cp in cps]), np.stack([cp.coeffs for cp in cps])


@pytest.mark.parametrize("name", ["mixed", "coupled"])
def test_the_row_space_solution_is_the_pseudo_inverse_one(monkeypatch, name):
    """solve_ddw takes x = A^T y, (A A^T) y = b, at every point, free and
    constrained, pinned and not; it is pinv(A) b, which solve_ddw computes
    when every Gram solve fails, to 1e-12 relative.  A random dL/dy keeps
    the right side of the free equations from vanishing."""
    rng = np.random.default_rng(31)
    bundle, v, dphi, coeffs = stacked_scenario(name, rng, 6)
    bundle = writable_copy(bundle)
    bundle.dLdy[...] += rng.uniform(-1, 1, bundle.dLdy.shape)
    m, nx = v.shape[-2:]
    counts = {"pinv": 0}
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        counts["pinv"] += 1
        return pinv(*args, **kwargs)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    for spatial in (None, rng.uniform(-1, 1, (6, m, nx - 1, nx))):
        for constraint in ((), (dphi, coeffs)):
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "pinv", counted)
                got = solve_ddw(bundle, v, spatial, *constraint)[:2]
            assert counts["pinv"] == 0
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "solve", singular)
                want = solve_ddw(bundle, v, spatial, *constraint)[:2]
            for x, ref in zip(got, want):
                scale = np.max(np.abs(ref), initial=0.0)
                assert np.max(np.abs(x - ref), initial=0.0) <= 1e-12 * scale


def test_a_zero_system_solves_to_zeros_and_the_others_keep_their_bits():
    """A point whose Hessian and right side vanish has a singular Gram
    matrix: it is solved to zeros without error, and the batch, solved
    point by point, gives the other points their batch-of-one bits."""
    rng = np.random.default_rng(9)
    bundle, v, dphi, coeffs = stacked_scenario("mixed", rng, 3)
    bundle = writable_copy(bundle)
    for field in ("H", "dLdy", "d2Ldydv", "d2Ldxdv"):
        getattr(bundle, field)[1] = 0.0
    for spatial in (None, rng.uniform(-1, 1, (3, 1, 1, 2))):
        block, _, errors = solve_ddw(bundle, v, spatial)
        assert errors == {}
        assert np.array_equal(block[1], np.zeros_like(block[1]))
        for i in (0, 2):
            fixed = None if spatial is None else spatial[i]
            sol = solve_free_ddw(bundle_at(bundle, i), v[i], fixed)
            assert np.array_equal(sol.coeffs.Gamma2[:, : block.shape[2]], block[i])


@pytest.mark.parametrize("name", ["wave", "fluid", "coupled"])
def test_batched_form_check_equals_the_pointwise_check_bitwise(name):
    """nh_ddw_residual_batch over stacked points gives the bits of
    nh_ddw_residual at each point on the same tuples, for the free,
    projected and directly solved connections."""
    rng = np.random.default_rng(17)
    scenarios = [oracle_scenario(name, rng) for _ in range(3)]
    model, spec = scenarios[0][:2]
    points = [s[2] for s in scenarios]
    cps = [spec.at(p) for p in points]
    bundles = [derivative_bundle(model, p) for p in points]
    v = np.stack([p.v for p in points])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in points]),
                                      np.stack([p.y for p in points]), v)
    for kind in ("free", "projected", "direct"):
        cp_at = [ConstraintPoint.unconstrained(p) if kind == "free" else cp
                 for p, cp in zip(points, cps)]
        sols = []
        for b, p, cp in zip(bundles, points, cps):
            free = solve_free_ddw(b, p.v)
            sols.append(free if kind == "free" else solve_constrained_ddw(b, cp)
                        if kind == "direct"
                        else project_connection(free, build_projectors(solve_zeta(b, cp.coeffs), cp)))
        sol = DdwSolution(ConnectionCoeffs(np.stack([s.coeffs.Gamma for s in sols]),
                                           np.stack([s.coeffs.Gamma2 for s in sols])),
                          np.stack([s.multipliers for s in sols]))
        vecs = rng.uniform(-1, 1, (3, 9, v.shape[-1] + 1, cps[0].dphi.shape[-1]))
        got = nh_ddw_residual_batch(bundle, v, np.stack([cp.dphi for cp in cp_at]),
                                    np.stack([cp.coeffs for cp in cp_at]), sol, vecs)
        for i, (b, cp, s) in enumerate(zip(bundles, cp_at, sols)):

            class Replay:  # hands the pointwise check the batch's tuples
                def uniform(self, low, high, size):
                    return vecs[i]

            want = nh_ddw_residual(b, cp, s, Replay(), 9)
            assert set(want) == set(got)
            for key, val in want.items():
                assert np.array_equal(val, got[key][i]), (kind, key)


def test_constrained_agrees_with_projection_residuals():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(11)
    p = wave_on_constraint_point(rng)
    bundle = derivative_bundle(model, p)
    cp = spec.at(p)
    zb = solve_zeta(bundle, cp.coeffs)
    pp = build_projectors(zb, cp)
    proj = project_connection(solve_free_ddw(bundle, p.v), pp)
    direct = solve_constrained_ddw(bundle, cp)
    for sol in (proj, direct):
        res = nh_ddw_residual(bundle, cp, sol, rng=np.random.default_rng(0))
        assert res["form_residual"] < 1e-8
        assert res["tangency_residual"] < 1e-10


# ---------------------------------------------------------------------------
# Euler-Lagrange and nonholonomic field equations at second-order jet data

def test_el_residual_dalembert_solution():
    model = make_model("wave")

    def soln(t, x):
        s = x - t
        return np.sin(s), [-np.cos(s), np.cos(s)], [
            [-np.sin(s), np.sin(s)], [np.sin(s), -np.sin(s)]
        ]

    q = wave_jet2(0.3, 0.8, soln)
    assert el_residual(model, q)[0] == pytest.approx(0.0, abs=1e-12)


def test_el_residual_quadratic_time():
    model = make_model("wave")

    def soln(t, x):
        return t * t, [2 * t, 0.0], [[2.0, 0.0], [0.0, 0.0]]

    q = wave_jet2(0.5, 0.2, soln)
    # orientation: E = y_tt - y_xx
    assert el_residual(model, q)[0] == pytest.approx(2.0)


def test_el_residual_matches_fd_total_derivative():
    """d/dx^mu (dL/dv^a_mu) along a polynomial section by finite
    differences, versus the chain-rule expansion."""
    model = make_model("quadratic", {"n": 1, "m": 1, "coupling": 0.9})

    def section(t, x):
        return (
            0.3 * t**3 - 0.2 * x**2 * t + 0.7 * x,
            [0.9 * t**2 - 0.2 * x**2, -0.4 * x * t + 0.7],
            [[1.8 * t, -0.4 * x], [-0.4 * x, -0.4 * t]],
        )

    t0, x0 = 0.4, -0.7
    q = wave_jet2(t0, x0, section)
    E = el_residual(model, q)[0]

    def dLdv(t, x):
        y, dy, _ = section(t, x)
        p = JetPoint([t, x], [y], [dy])
        return derivative_bundle(model, p).dLdv[0]

    h = 1e-5
    div = (dLdv(t0 + h, x0)[0] - dLdv(t0 - h, x0)[0]) / (2 * h) + (
        dLdv(t0, x0 + h)[1] - dLdv(t0, x0 - h)[1]
    ) / (2 * h)
    y0, dy0, _ = section(t0, x0)
    p0 = JetPoint([t0, x0], [y0], [dy0])
    dLdy = derivative_bundle(model, p0).dLdy[0]
    assert E == pytest.approx(div - dLdy, abs=1e-6)


def test_nh_field_residual_travelling_square():
    """y = (x + 2t)^2 solves the constrained wave problem with
    E = y_tt - y_xx = 6 and minimum-norm lambda = (6/5, -12/5)."""
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})

    def soln(t, x):
        s = x + 2 * t
        return s * s, [4 * s, 2 * s], [[8.0, 4.0], [4.0, 2.0]]

    q = wave_jet2(0.35, -0.2, soln)
    out = nh_field_residual(model, spec, q)
    assert np.allclose(out["lam_fit"], [[6.0 / 5.0, -12.0 / 5.0]], atol=1e-12)
    assert np.abs(out["residual"]).max() < 1e-12
    assert np.abs(out["constraint_vals"]).max() < 1e-12


def test_nh_field_residual_zero_for_free_solution_on_constraint():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})

    # free solution (d'Alembert) that happens to sit on the constraint set
    # pointwise: y = F(x + t) has v0 = v1, not on C for speed 2 -- instead
    # use the trivial solution y = const
    def soln(t, x):
        return 1.3, [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]

    q = wave_jet2(0.1, 0.1, soln)
    out = nh_field_residual(model, spec, q)
    assert np.allclose(out["lam_fit"], 0.0)
    assert np.abs(out["residual"]).max() == 0.0


def test_nh_field_residual_flags_off_equation_data():
    """A residual component orthogonal to the span of the coefficient rows
    cannot be absorbed by any multiplier; needs m >= 2."""
    from nhfields.constraint import ConstraintSpec

    model = make_model("quadratic", {"n": 1, "m": 2})

    def phi(x, y, v):
        return v[0][0] - 2.0 * v[0][1]  # involves field 0 only

    spec = ConstraintSpec(Dims(1, 2, 1), [phi])
    # E_a = trace(w_a) for L = sum v^2 / 2: choose E = (0, 1)
    v = np.zeros((2, 2))
    w = np.zeros((2, 2, 2))
    w[1, 0, 0] = 1.0
    q = Jet2Point(JetPoint([0.0, 0.0], [0.0, 0.0], v), w)
    out = nh_field_residual(model, spec, q)
    assert np.abs(out["residual"][1]) == pytest.approx(1.0)
    assert np.allclose(out["lam_fit"], 0.0, atol=1e-12)


@pytest.mark.parametrize("points", [1, 7, 64, 512])
def test_the_pinned_contraction_keeps_its_bits_over_chunks(monkeypatch, points):
    """The pinned block's part of the right side runs over chunks of the
    bundle's size; at every chunk size it has the bits of one contraction
    over the whole batch, and so does the pinned solve."""
    from nhfields import ddw, lagrangian

    rng = np.random.default_rng(12)
    model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
    batch = (4, 4, 40)  # 640 points: a chunk and a part at the default size
    v = np.eye(3, 4, 1) + rng.uniform(-0.1, 0.1, batch + (3, 4))
    bundle = derivative_bundle_arrays(model, rng.uniform(-1, 1, batch + (4,)),
                                      rng.uniform(-1, 1, batch + (3,)), v)
    spatial = rng.uniform(-1, 1, batch + (3, 3, 4))
    whole = np.einsum("...bnai,...bin->...a", bundle.H[..., 1:], spatial, optimize=True)
    want = solve_ddw(bundle, v, spatial)[:2]
    monkeypatch.setattr(lagrangian, "_CHUNK_BYTES", points * 8 * 12**2)
    assert np.array_equal(ddw._pinned_terms(bundle.H, spatial).view(np.int64),
                          whole.view(np.int64))
    for got, ref in zip(solve_ddw(bundle, v, spatial)[:2], want):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
