"""Free/constrained De Donder-Weyl solvers and field-equation residuals."""

import numpy as np
import pytest

from nhfields.constraint import ConstraintPoint, chetaev_coefficients, make_constraint
from nhfields.ddw import (
    ConnectionCoeffs,
    DdwSolution,
    el_residual,
    nh_ddw_residual,
    nh_field_residual,
    project_connection,
    solve_constrained_ddw,
    solve_ddw,
    solve_free_ddw,
)
from nhfields.exceptions import DimensionMismatchError, InvalidArgumentError
from nhfields.jet import Dims, Jet2Point, JetPoint
from nhfields.lagrangian import derivative_bundle, derivative_bundle_arrays, make_model
from nhfields.projector import build_projectors, solve_zeta

from helpers import (
    bundle_at,
    form_check_oracle,
    oracle_scenario,
    random_point,
    wave_on_constraint_point,
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
            block, lam = solve_ddw(bundle, v, spatial, *(constraint if constrained else ()))
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
