"""Induced forms on Cauchy data, SODE construction, and evolution."""

import numpy as np
import pytest

from nhfields.cauchy import (
    CauchyState,
    StateVariation,
    constrained_membership_check,
    constraint_ansatz_fit,
    evolve,
    free_sode_omega_values,
    grid_derivative,
    project_onto_constraint,
    sode_vector_field,
    tilde_eta_contract,
    tilde_omega_contract,
)
from nhfields.constraint import ConstraintSpec, chetaev_coefficients, make_constraint
from nhfields.ddw import project_connection, solve_free_ddw
from nhfields.exceptions import (
    DdwSolveError,
    DimensionMismatchError,
    DriftError,
    IntegrationError,
    InvalidArgumentError,
)
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import LagrangianModel, derivative_bundle, make_model
from nhfields.projector import build_projectors, solve_zeta

from helpers import random_det_one_spatial


def wave_pde_state(Nu=64, amp=1.0, mode=1):
    u = np.arange(Nu) / Nu
    y = amp * np.sin(2 * np.pi * mode * u)[:, None]
    return CauchyState(0.0, y, "pde", ydot=np.zeros((Nu, 1)))


def constrained_wave_state(Nu=64, amp=0.1, speed=2.0, method="spectral"):
    u = np.arange(Nu) / Nu
    y = amp * np.sin(2 * np.pi * u)[:, None]
    v1 = grid_derivative(y, (Nu,), 0, method)
    return CauchyState(0.0, y, "fulljet", v0=speed * v1, vi=v1[..., None])


def test_grid_derivative_spectral_and_fd4():
    Nu = 64
    u = np.arange(Nu) / Nu
    f = np.sin(2 * np.pi * u)
    want = 2 * np.pi * np.cos(2 * np.pi * u)
    assert np.abs(grid_derivative(f, (Nu,), 0, "spectral") - want).max() < 1e-11
    assert np.abs(grid_derivative(f, (Nu,), 0, "fd4") - want).max() < 1e-4


def test_fd4_needs_a_full_stencil():
    # on 4 points the 5-point stencil would wrap onto itself
    with pytest.raises(InvalidArgumentError):
        grid_derivative(np.arange(4.0), (4,), 0, "fd4")


def test_eta_contract_values():
    state = wave_pde_state()
    Nu = state.grid_shape[0]
    u = np.arange(Nu) / Nu
    gamma = sode_vector_field(make_model("wave"), None, state)
    assert tilde_eta_contract(state, gamma) == 1.0
    W = StateVariation(
        np.stack([np.sin(2 * np.pi * u), np.zeros(Nu)], axis=-1),
        np.zeros((Nu, 1)),
        np.zeros((Nu, 1, 2)),
    )
    assert abs(tilde_eta_contract(state, W)) < 1e-12
    vertical = StateVariation(
        np.zeros((Nu, 2)), np.zeros((Nu, 1)), np.ones((Nu, 1, 2))
    )
    assert tilde_eta_contract(state, vertical) == 0.0


def test_omega_tilde_antisymmetry():
    model = make_model("wave")
    state = wave_pde_state(32)
    rng = np.random.default_rng(0)
    W1 = StateVariation.random(state, rng)
    W2 = StateVariation.random(state, rng)
    a = tilde_omega_contract(model, state, W1, W2)
    b = tilde_omega_contract(model, state, W2, W1)
    assert a == pytest.approx(-b, abs=1e-12)
    assert tilde_omega_contract(model, state, W1, W1) == pytest.approx(0.0, abs=1e-12)


def test_sode_second_order_property_and_acceleration():
    model = make_model("wave")
    state = wave_pde_state(64)
    var = sode_vector_field(model, None, state)
    # SODE: the dy block equals the state's velocity block exactly
    assert np.array_equal(var.dy, state.ydot)
    assert np.allclose(var.dx[..., 0], 1.0) and np.allclose(var.dx[..., 1], 0.0)
    u = np.arange(64) / 64
    want = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * u)
    assert np.abs(var.dv[:, 0, 0] - want).max() < 1e-6


def test_sode_constant_state_is_equilibrium():
    model = make_model("wave")
    state = CauchyState(0.0, 0.7 * np.ones((16, 1)), "pde", ydot=np.zeros((16, 1)))
    var = sode_vector_field(model, None, state)
    assert np.allclose(var.dv, 0.0, atol=1e-12)


def test_free_field_contraction_vanishes():
    model = make_model("wave")
    state = wave_pde_state(64)
    rng = np.random.default_rng(1)
    variations = [StateVariation.random(state, rng) for _ in range(20)]
    vals = free_sode_omega_values(model, state, variations)
    assert np.abs(vals).max() < 1e-8


def test_free_wave_evolution_matches_dalembert():
    model = make_model("wave")
    state = wave_pde_state(64)
    res = evolve(model, None, state, 1e-3, 1000, "rk4")
    u = np.arange(64) / 64
    T = res.states[-1].t
    exact = 0.5 * (np.sin(2 * np.pi * (u - T)) + np.sin(2 * np.pi * (u + T)))
    assert np.abs(res.states[-1].y[:, 0] - exact).max() < 1e-5
    energy = res.diagnostics["energy"]
    assert np.abs(energy - energy[0]).max() < 1e-8
    assert np.abs(res.diagnostics["eta"] - 1.0).max() < 1e-12


def test_zero_steps_returns_initial_state():
    model = make_model("wave")
    state = wave_pde_state(16)
    res = evolve(model, None, state, 1e-3, 0)
    assert len(res.states) == 1 and res.states[0] is state
    assert len(res.diagnostics["t"]) == 1


def test_euler_integrator_first_order():
    model = make_model("wave")
    errs = []
    for dt, steps in ((2e-4, 500), (1e-4, 1000)):
        res = evolve(model, None, wave_pde_state(64), dt, steps, "euler")
        u = np.arange(64) / 64
        T = res.states[-1].t
        exact = 0.5 * (np.sin(2 * np.pi * (u - T)) + np.sin(2 * np.pi * (u + T)))
        errs.append(np.abs(res.states[-1].y[:, 0] - exact).max())
    assert 1.5 < errs[0] / errs[1] < 2.6  # halving dt halves the error


def test_sode_euler_prediction_keeps_constraint_second_order():
    # the projected field is tangent: phi after an Euler step is O(dt^2);
    # for the linear constraint it is exactly zero
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state()
    var = sode_vector_field(model, spec, state)
    for dt in (1e-2, 1e-3):
        v0p = state.v0 + dt * var.dv[..., 0]
        vip = state.vi + dt * var.dv[..., 1:]
        phi = v0p - 2.0 * vip[..., 0]
        assert np.abs(phi).max() < 1e-14


def test_constrained_wave_linear_phi_preserved_exactly():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state()
    res = evolve(model, spec, state, 2e-3, 100, "rk4")
    # linear constraint + exactly tangent field: RK4 preserves phi to
    # roundoff, no O(dt^4) drift signal exists here
    assert res.diagnostics["max_phi"].max() < 1e-13
    assert res.diagnostics["holonomy"].max() > 1e-3  # holonomy does drift


def nonlinear_wave_spec(c=0.5):
    def phi(x, y, v):
        return v[0][0] - 2.0 * v[0][1] - c * v[0][1] * v[0][1]

    return ConstraintSpec(Dims(1, 1, 1), [phi])


def nonlinear_constrained_state(Nu=64, amp=0.1, c=0.5):
    u = np.arange(Nu) / Nu
    y = amp * np.sin(2 * np.pi * u)[:, None]
    v1 = grid_derivative(y, (Nu,), 0, "spectral")
    v0 = 2.0 * v1 + c * v1 * v1
    return CauchyState(0.0, y, "fulljet", v0=v0, vi=v1[..., None])


def test_constrained_drift_is_fourth_order_for_nonlinear_phi():
    model = make_model("wave")
    spec = nonlinear_wave_spec()
    state = nonlinear_constrained_state()
    drifts = {}
    for dt in (4e-3, 2e-3):
        steps = int(round(0.2 / dt))
        res = evolve(model, spec, state, dt, steps, "rk4", drift_tol=1e-3)
        drifts[dt] = res.diagnostics["max_phi"].max()
    ratio = drifts[4e-3] / drifts[2e-3]
    assert drifts[4e-3] > 1e-13  # measurable signal
    assert 12.0 <= ratio <= 20.0


def test_projected_difference_fits_constraint_ansatz():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    # overdetermined fit: more variations than grid points x constraints
    state = constrained_wave_state(Nu=16)
    rng = np.random.default_rng(2)
    variations = [StateVariation.random(state, rng) for _ in range(40)]
    fit = constraint_ansatz_fit(model, spec, state, variations)
    assert np.abs(fit["values"]).max() > 1e-3  # the difference is nontrivial
    assert fit["residual"] < 1e-9


def test_constraint_ansatz_negative_control():
    # an unprojected constrained difference built from a *wrong* vector
    # field does not fit the constraint-form ansatz
    from nhfields.cauchy import _omega_tilde, _slice_geometry

    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state(Nu=16)
    rng = np.random.default_rng(3)
    variations = [StateVariation.random(state, rng) for _ in range(40)]
    geom = _slice_geometry(model, state, "spectral")
    gamma = sode_vector_field(model, None, state)
    # corrupt the dy block: breaks the second-order structure
    wrong = StateVariation(gamma.dx, gamma.dy + 0.35, gamma.dv)
    lhs = np.array(
        [_omega_tilde(geom, wrong, W) - _omega_tilde(geom, gamma, W)
         for W in variations]
    )
    from nhfields.constraint import coefficient_arrays, phi_eval_batch

    dphidv = spec.derivatives_arrays(geom.x, geom.y, geom.v)[2]
    C = coefficient_arrays(spec, geom.x, geom.y, geom.v, dphidv)
    cols = []
    B = 16
    for W in variations:
        vecs = np.concatenate([W.dense()[..., None, :], geom.T], axis=-2)
        cols.append(phi_eval_batch(C, geom.v, vecs).reshape(B) / B)
    M = np.asarray(cols)
    coeff, *_ = np.linalg.lstsq(M, lhs, rcond=None)
    assert np.abs(lhs - M @ coeff).max() > 1e-4


def test_projected_contraction_vanishes_on_restricted_class():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state(Nu=64)
    rng = np.random.default_rng(4)
    variations = [StateVariation.random(state, rng) for _ in range(20)]
    vals = constrained_membership_check(model, spec, state, variations)
    assert np.abs(vals).max() < 1e-7


def test_restriction_to_annihilator_class_is_necessary():
    """Sanity: the contraction does NOT vanish on variations that only
    annihilate dphi, which is why the restricted class is required."""
    from nhfields.cauchy import _omega_tilde, _slice_geometry

    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state(Nu=64)
    rng = np.random.default_rng(5)
    geom = _slice_geometry(model, state, "spectral")
    pgamma = sode_vector_field(model, spec, state)
    dphidx, dphidy, dphidv = spec.derivatives_arrays(geom.x, geom.y, geom.v)
    dphi = np.concatenate(
        [dphidx, dphidy, dphidv.reshape((64, 1, -1))], axis=-1
    )
    pinv = np.linalg.pinv(dphi)
    vals = []
    for _ in range(10):
        W = StateVariation.random(state, rng)
        dense = W.dense()
        corr = np.einsum("...nr,...r->...n", pinv,
                         np.einsum("...rn,...n->...r", dphi, dense))
        Wt = StateVariation.from_dense(dense - corr, 1, 1)
        vals.append(_omega_tilde(geom, pgamma, Wt))
    assert np.abs(vals).max() > 1e-4


def test_drift_error_raised_off_constraint():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state()
    bad = CauchyState(0.0, state.y, "fulljet", v0=state.v0 + 0.1, vi=state.vi)
    with pytest.raises(DriftError):
        sode_vector_field(model, spec, bad)


def test_incompatible_point_raises():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 1.0})
    Nu = 16
    u = np.arange(Nu) / Nu
    y = 0.1 * np.sin(2 * np.pi * u)[:, None]
    v1 = grid_derivative(y, (Nu,), 0, "spectral")
    state = CauchyState(0.0, y, "fulljet", v0=v1, vi=v1[..., None])
    from nhfields.exceptions import CompatibilityError

    with pytest.raises(CompatibilityError):
        sode_vector_field(model, spec, state)


def test_instability_aborts_with_step_index():
    model = make_model("wave")
    # CFL-violating explicit Euler blows up; expect a clean abort
    state = wave_pde_state(64, amp=1.0, mode=12)
    with pytest.raises(IntegrationError):
        evolve(model, None, state, 0.5, 200, "euler")


def test_stabilization_reprojects():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 2.0})
    state = constrained_wave_state()
    off = CauchyState(
        0.0, state.y, "fulljet", v0=state.v0 + 1e-7, vi=state.vi
    )
    fixed = project_onto_constraint(spec, off)
    xj, yj, vj = fixed.jet_arrays()
    assert np.abs(spec.values_arrays(xj, yj, vj)).max() < 1e-13


def test_pde_mode_reconstructs_spatial_jet():
    state = wave_pde_state(32)
    vi = state.spatial_jet("spectral")
    u = np.arange(32) / 32
    want = 2 * np.pi * np.cos(2 * np.pi * u)
    assert np.abs(vi[:, 0, 0] - want).max() < 1e-11


def test_bad_integrator_name_rejected():
    model = make_model("wave")
    with pytest.raises(InvalidArgumentError):
        evolve(model, None, wave_pde_state(16), 1e-3, 1, integrator="leapfrog")


def fluid_fulljet_state(N=4, seed=11):
    """A fluid state on the constraint set whose field is nonzero: smooth
    velocity, and per-point unit-determinant spatial jets near identity."""
    rng = np.random.default_rng(seed)
    G = (N, N, N)
    vi = np.empty(G + (3, 3))
    for idx in np.ndindex(G):
        vi[idx] = random_det_one_spatial(rng, scale=0.1)
    v0 = 0.05 * rng.uniform(-1, 1, G + (3,))
    y = 0.01 * rng.uniform(-1, 1, G + (3,))
    return CauchyState(0.0, y, "fulljet", v0=v0, vi=vi, y_offset="identity")


@pytest.mark.parametrize("scenario", ["wave", "fluid"])
def test_grid_field_is_the_pointwise_chain_at_every_point(scenario):
    """sode_vector_field and the verify chain (free solve with the pinned
    spatial block, then the projector) share one kernel per step, so the
    grid field equals the pointwise projected temporal block."""
    if scenario == "wave":
        model = make_model("wave")
        spec = make_constraint("linear-transport", {"speed": 2.0})
        state = constrained_wave_state(Nu=16)
    else:
        model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
        spec = make_constraint("incompressibility")
        state = fluid_fulljet_state()
    field = sode_vector_field(model, spec, state)
    assert np.abs(field.dv).max() > 1e-3
    G, n = state.grid_shape, state.n
    x, y, v = state.jet_arrays()
    Gsp = np.stack([grid_derivative(v, G, i) for i in range(n)], axis=-2)
    for idx in np.ndindex(G):
        p = JetPoint(x[idx], y[idx], v[idx])
        zb = solve_zeta(derivative_bundle(model, p), chetaev_coefficients(spec, p))
        pp = build_projectors(zb, spec, p)
        free = solve_free_ddw(model, p, fixed_spatial=Gsp[idx])
        proj = project_connection(free, pp, zb, p)
        np.testing.assert_array_equal(field.dv[idx], proj.coeffs.Gamma2[:, 0, :])


def test_unsolvable_temporal_block_names_the_grid_point():
    # L = y - v_1^2 / 2: the temporal block of the Hessian vanishes while
    # dL/dy = 1, so the temporal equations have no solution
    def fn(x, y, v):
        return y[0] - 0.5 * v[0][1] * v[0][1]

    model = LagrangianModel("no-time", Dims(1, 1), fn)
    with pytest.raises(DdwSolveError, match=r"at grid point \(\d+,\)"):
        sode_vector_field(model, None, wave_pde_state(16))


@pytest.mark.parametrize("shape", [(2, 1), (1, 1, 2)])
def test_custom_coefficients_need_trailing_k_nx_m(shape):
    spec = make_constraint(
        "linear-transport", {"speed": 2.0}, coeff_mode="custom",
        custom_coeffs=lambda _p: np.ones(shape),
    )
    state = constrained_wave_state(Nu=16)
    x, y, v = state.jet_arrays()
    with pytest.raises(DimensionMismatchError):
        chetaev_coefficients(spec, JetPoint(x[0], y[0], v[0]))
    with pytest.raises(DimensionMismatchError):
        sode_vector_field(make_model("wave"), spec, state)
