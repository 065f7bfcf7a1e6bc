"""Induced forms on Cauchy data, SODE construction, and evolution."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from nhfields import cauchy
from nhfields.cauchy import (
    CauchyState,
    constrained_membership_check,
    constraint_ansatz_fit,
    evolve,
    free_sode_omega_values,
    grid_coordinates,
    grid_derivative,
    initial_state,
    project_onto_constraint,
    sode_vector_field,
    tilde_eta_contract,
    tilde_omega_contract,
)
from nhfields.constraint import ConstraintSpec, chetaev_coefficients, make_constraint
from nhfields.ddw import project_connection, solve_free_ddw
from nhfields.exceptions import (
    CompatibilityError,
    DdwSolveError,
    DimensionMismatchError,
    DriftError,
    EvaluationError,
    IntegrationError,
    InvalidArgumentError,
    OffConstraintError,
    RegularityError,
    raise_first,
)
from nhfields.exterior import TangentVector
from nhfields.jet import Dims, JetPoint, periodic_derivative
from nhfields.lagrangian import LagrangianModel, derivative_bundle, make_model
from nhfields.projector import build_projectors, solve_zeta

from helpers import nonlinear_wave_spec, random_det_one_spatial, random_variation, traced_peak


WAVE = make_model("wave")
TRANSPORT = make_constraint("linear-transport", {"speed": 2.0})


def test_grid_derivative_spectral_and_fd4():
    # D_i along the two leading (grid) axes, stacked after the component axis
    u1, u2 = grid_coordinates((64, 64))
    s1, c1, s2, c2 = (f(2 * np.pi * u) for u in (u1, u2) for f in (np.sin, np.cos))
    arr = np.stack([s1 * c2, c2], axis=-1)
    want = 2 * np.pi * np.stack([np.stack([c1 * c2, -s1 * s2], axis=-1),
                                 np.stack([0 * c2, -s2], axis=-1)], axis=-2)
    assert np.abs(grid_derivative(arr, 2, "spectral") - want).max() < 1e-11
    assert np.abs(grid_derivative(arr, 2, "fd4") - want).max() < 1e-4


def test_grid_constants_are_cached_read_only_and_keep_the_derivative_bits():
    """The coordinates and the wavenumbers of a grid are built once per
    shape and cannot be written; the spectral derivative keeps the bits of
    the complex transform with the wavenumbers built afresh."""
    coords = grid_coordinates((6, 8))
    assert grid_coordinates((6, 8)) is coords
    for c in coords:
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 1.0
    assert np.array_equal(coords[1][0], np.arange(8) / 8)
    arr = np.random.default_rng(2).uniform(-1, 1, (6, 8, 5, 3))
    out = grid_derivative(arr, 2, "spectral")
    for axis, N in enumerate((6, 8)):
        shape = [1] * arr.ndim
        shape[axis] = N
        k = (2j * np.pi * np.fft.fftfreq(N, d=1.0 / N)).reshape(shape)
        ref = np.real(np.fft.ifft(np.fft.fft(arr, axis=axis) * k, axis=axis))
        assert np.array_equal(out[..., axis].view(np.int64), ref.view(np.int64))
    assert not cauchy._wavenumbers(8, 1, 4).flags.writeable
    fd4 = np.stack([periodic_derivative(arr, 1.0 / N, axis=axis)
                    for axis, N in enumerate((6, 8))], axis=-1)
    assert np.array_equal(grid_derivative(arr, 2, "fd4").view(np.int64), fd4.view(np.int64))


def test_fd4_needs_a_full_stencil():
    # on 4 points the 5-point stencil would wrap onto itself
    with pytest.raises(InvalidArgumentError):
        grid_derivative(np.arange(4.0), 1, "fd4")


_Y = np.zeros((4, 1))


@pytest.mark.parametrize("call, error, match", [
    (lambda: CauchyState(0.0, _Y, "odd", ydot=_Y), InvalidArgumentError, "unknown state mode"),
    (lambda: CauchyState(0.0, _Y, "pde"), InvalidArgumentError, "pde mode needs ydot"),
    (lambda: CauchyState(0.0, _Y, "pde", ydot=np.zeros((4, 2))), DimensionMismatchError,
     "ydot must match"),
    (lambda: CauchyState(0.0, _Y, "fulljet", v0=_Y), InvalidArgumentError,
     "fulljet mode needs v0 and vi"),
    (lambda: CauchyState(0.0, _Y, "fulljet", v0=_Y, vi=_Y), DimensionMismatchError,
     "v0/vi shapes"),
    (lambda: CauchyState(0.0, _Y, "pde", ydot=_Y, y_offset="shift"), InvalidArgumentError,
     "unknown y_offset"),
    (lambda: CauchyState(0.0, np.zeros((4, 2)), "pde", ydot=np.zeros((4, 2)),
                         y_offset="identity"), InvalidArgumentError, "needs m == n"),
    (lambda: CauchyState(0.0, _Y, "pde", ydot=_Y, derivative="cheb"), InvalidArgumentError,
     "unknown derivative 'cheb'"),
    (lambda: grid_derivative(_Y, 1, "cheb"), InvalidArgumentError, "derivative method"),
    (lambda: tilde_eta_contract(initial_state(WAVE, None, 8, 1.0), TangentVector(
        np.zeros((4, 2)), _Y, np.zeros((4, 1, 2)))), DimensionMismatchError, "variation grid"),
    (lambda: project_onto_constraint(TRANSPORT, initial_state(WAVE, None, 8, 1.0)),
     InvalidArgumentError, "applies to fulljet states"),
    # y + dt ydot overflows while every field value stays finite
    (lambda: evolve(make_model("wave"), None, CauchyState(0.0, _Y, "pde", ydot=_Y + 2.0),
                    1.7e308, 1, integrator="euler"),
     IntegrationError, "^non-finite state after step 1$"),
], ids=["mode", "no-ydot", "ydot-shape", "no-vi", "vi-shape", "y-offset", "identity-m",
        "derivative", "method", "eta-grid", "stabilize-pde", "non-finite-step"])
def test_each_guard_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_eta_contract_values():
    state = initial_state(WAVE, None, 64, 1.0)
    Nu = state.grid_shape[0]
    u = np.arange(Nu) / Nu
    gamma = sode_vector_field(make_model("wave"), None, state)
    assert tilde_eta_contract(state, gamma) == 1.0
    W = TangentVector(
        np.stack([np.sin(2 * np.pi * u), np.zeros(Nu)], axis=-1),
        np.zeros((Nu, 1)),
        np.zeros((Nu, 1, 2)),
    )
    assert abs(tilde_eta_contract(state, W)) < 1e-12
    vertical = TangentVector(
        np.zeros((Nu, 2)), np.zeros((Nu, 1)), np.ones((Nu, 1, 2))
    )
    assert tilde_eta_contract(state, vertical) == 0.0
    shared = TangentVector(np.eye(2)[0], np.zeros(1), np.zeros((Nu, 1, 2)))  # broadcast dx, dy
    assert tilde_eta_contract(state, shared) == 1.0


def test_omega_tilde_antisymmetry():
    model = make_model("wave")
    state = initial_state(WAVE, None, 32, 1.0)
    rng = np.random.default_rng(0)
    W1 = random_variation(state, rng)
    W2 = random_variation(state, rng)
    a = tilde_omega_contract(model, state, W1, W2)
    b = tilde_omega_contract(model, state, W2, W1)
    assert a == pytest.approx(-b, abs=1e-12)
    assert tilde_omega_contract(model, state, W1, W1) == pytest.approx(0.0, abs=1e-12)


def test_sode_second_order_property_and_acceleration():
    model = make_model("wave")
    state = initial_state(WAVE, None, 64, 1.0)
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
    state = initial_state(WAVE, None, 64, 1.0)
    rng = np.random.default_rng(1)
    variations = [random_variation(state, rng) for _ in range(20)]
    vals = free_sode_omega_values(model, state, variations)
    assert np.abs(vals).max() < 1e-8


def test_free_wave_evolution_matches_dalembert():
    model = make_model("wave")
    state = initial_state(WAVE, None, 64, 1.0)
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
    state = initial_state(WAVE, None, 16, 1.0)
    res = evolve(model, None, state, 1e-3, 0)
    assert len(res.states) == 1 and res.states[0] is state
    assert len(res.diagnostics["t"]) == 1


def test_euler_integrator_first_order():
    model = make_model("wave")
    errs = []
    for dt, steps in ((2e-4, 500), (1e-4, 1000)):
        res = evolve(model, None, initial_state(WAVE, None, 64, 1.0), dt, steps, "euler")
        u = np.arange(64) / 64
        T = res.states[-1].t
        exact = 0.5 * (np.sin(2 * np.pi * (u - T)) + np.sin(2 * np.pi * (u + T)))
        errs.append(np.abs(res.states[-1].y[:, 0] - exact).max())
    assert 1.5 < errs[0] / errs[1] < 2.6  # halving dt halves the error


def test_sode_euler_prediction_keeps_constraint_second_order():
    # the projected field is tangent: phi after an Euler step is O(dt^2);
    # for the linear constraint it is exactly zero
    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    var = sode_vector_field(model, spec, state)
    for dt in (1e-2, 1e-3):
        v0p = state.v0 + dt * var.dv[..., 0]
        vip = state.vi + dt * var.dv[..., 1:]
        phi = v0p - 2.0 * vip[..., 0]
        assert np.abs(phi).max() < 1e-14


def test_constrained_wave_linear_phi_preserved_exactly():
    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    res = evolve(model, spec, state, 2e-3, 100, "rk4")
    # linear constraint + exactly tangent field: RK4 preserves phi to
    # roundoff, no O(dt^4) drift signal exists here
    assert res.diagnostics["max_phi"].max() < 1e-13
    assert res.diagnostics["holonomy"].max() > 1e-3  # holonomy does drift


@pytest.mark.parametrize("derivative", ["spectral", "fd4"])
@pytest.mark.parametrize("N", [16, 64])
def test_the_built_in_constrained_wave_is_its_closed_form_in_every_bit(N, derivative):
    """Newton from v0 = 0 lands the built-in constrained wave on the closed
    form of its v0: 2 D_u y under linear transport at speed 2, and
    2 D_u y + c (D_u y)^2 under criterion 9's constraint at c = 0.5."""
    u = np.arange(N) / N
    y = 0.1 * np.sin(2 * np.pi * u)[:, None]
    v1 = grid_derivative(y, 1, derivative)[..., 0]
    for spec, v0 in [(TRANSPORT, 2.0 * v1),
                     (nonlinear_wave_spec(0.5), 2.0 * v1 + 0.5 * v1 * v1)]:
        state = initial_state(WAVE, spec, N, 0.1, derivative=derivative)
        for got, want in [(state.y, y), (state.vi[..., 0], v1), (state.v0, v0)]:
            assert got.tobytes() == want.tobytes()


def test_constrained_drift_is_fourth_order_for_nonlinear_phi():
    model = make_model("wave")
    spec = nonlinear_wave_spec()
    state = initial_state(model, spec, 64, 0.1)
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
    state = initial_state(model, spec, 16, 0.1)
    rng = np.random.default_rng(2)
    variations = [random_variation(state, rng) for _ in range(40)]
    fit = constraint_ansatz_fit(model, spec, state, variations)
    assert np.abs(fit["values"]).max() > 1e-3  # the difference is nontrivial
    assert fit["residual"] < 1e-9


def test_constraint_ansatz_negative_control():
    # an unprojected constrained difference built from a *wrong* vector
    # field does not fit the constraint-form ansatz
    from nhfields.cauchy import _omega_tilde, _slice_geometry, _tangent_rows

    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 16, 0.1)
    rng = np.random.default_rng(3)
    variations = [random_variation(state, rng) for _ in range(40)]
    geom = _slice_geometry(model, state)
    T = _tangent_rows(geom)
    gamma = sode_vector_field(model, None, state)
    # corrupt the dy block: breaks the second-order structure
    wrong = TangentVector(gamma.dx, gamma.dy + 0.35, gamma.dv)
    lhs = np.array(
        [_omega_tilde(geom, T, wrong.components, W.components)
         - _omega_tilde(geom, T, gamma.components, W.components)
         for W in variations]
    )
    from nhfields.constraint import coefficient_arrays, phi_eval_batch

    dphidv = spec.dphidv_arrays(geom.x, geom.y, geom.v)
    C = coefficient_arrays(spec, dphidv)
    cols = []
    B = 16
    for W in variations:
        vecs = np.concatenate([W.components[..., None, :], T], axis=-2)
        cols.append(phi_eval_batch(C, geom.v, vecs).reshape(B) / B)
    M = np.asarray(cols)
    coeff, *_ = np.linalg.lstsq(M, lhs, rcond=None)
    assert np.abs(lhs - M @ coeff).max() > 1e-4


def test_projected_contraction_vanishes_on_restricted_class():
    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    rng = np.random.default_rng(4)
    variations = [random_variation(state, rng) for _ in range(20)]
    vals = constrained_membership_check(model, spec, state, variations)
    assert np.abs(vals).max() < 1e-7


def test_restriction_to_annihilator_class_is_necessary():
    """Sanity: the contraction does NOT vanish on variations that only
    annihilate dphi, which is why the restricted class is required."""
    from nhfields.cauchy import _omega_tilde, _slice_geometry, _tangent_rows

    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    rng = np.random.default_rng(5)
    geom = _slice_geometry(model, state)
    T = _tangent_rows(geom)
    pgamma = sode_vector_field(model, spec, state)
    dphi = spec.evaluate(geom.x, geom.y, geom.v)[1]
    pinv = np.linalg.pinv(dphi)
    vals = []
    for _ in range(10):
        W = random_variation(state, rng)
        dense = W.components
        corr = np.einsum("...nr,...r->...n", pinv,
                         np.einsum("...rn,...n->...r", dphi, dense))
        vals.append(_omega_tilde(geom, T, pgamma.components, dense - corr))
    assert np.abs(vals).max() > 1e-4


def test_drift_error_raised_off_constraint():
    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    bad = CauchyState(0.0, state.y, "fulljet", v0=state.v0 + 0.1, vi=state.vi)
    with pytest.raises(DriftError):
        sode_vector_field(model, spec, bad)


def test_incompatible_point_raises():
    model = make_model("wave")
    spec = make_constraint("linear-transport", {"speed": 1.0})
    Nu = 16
    u = np.arange(Nu) / Nu
    y = 0.1 * np.sin(2 * np.pi * u)[:, None]
    v1 = grid_derivative(y, 1, "spectral")[..., 0]
    state = CauchyState(0.0, y, "fulljet", v0=v1, vi=v1[..., None])
    from nhfields.exceptions import CompatibilityError

    with pytest.raises(CompatibilityError):
        sode_vector_field(model, spec, state)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_instability_aborts_with_step_index():
    model = make_model("wave")
    # CFL-violating explicit Euler blows up; expect a clean abort
    state = initial_state(WAVE, None, 64, 1.0, 12)
    with pytest.raises(IntegrationError, match=r"at step \d+.*index \(\d+,\)"):
        evolve(model, None, state, 0.5, 200, "euler")


# classical RK4 and forward Euler, written out independently of the
# integrator's table
_TABLEAUS = {
    "rk4": ([1 / 6, 1 / 3, 1 / 3, 1 / 6], [0.0, 0.5, 0.5, 1.0]),
    "euler": ([1.0], [0.0]),
}


def reference_evolve(model, spec, state, dt, steps, integrator, stabilize=False,
                     drift_tol=1e-6):
    """Explicit Runge-Kutta that evaluates the field afresh at every stage;
    only the kept states are held to ``drift_tol``."""
    weights, nodes = _TABLEAUS[integrator]
    for _ in range(steps):
        y0, t0 = cauchy._pack(state), state.t
        ks = []
        for c in nodes:
            stage = state if c == 0.0 else cauchy._unpack(state, y0 + dt * c * ks[-1],
                                                          t0 + c * dt)
            var = sode_vector_field(model, spec, stage,
                                    drift_tol=drift_tol if c == 0.0 else np.inf)
            ks.append(cauchy._rhs(stage, var))
        state = cauchy._unpack(state, y0 + dt * sum(w * k for w, k in zip(weights, ks)),
                               t0 + dt)
        if stabilize:
            state = project_onto_constraint(spec, state)
    return state


def _spy(monkeypatch, counts, owner, name, key):
    """Count the calls of ``owner.name`` under ``counts[key]``."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_fluid_field_evaluation_takes_no_pseudo_inverse(monkeypatch):
    """The temporal De Donder-Weyl solve of the fluid goes by its Gram
    matrices at every point of the 4^3 smoke state (the CLI's fluid evolve
    defaults on a 4^3 grid), so one field evaluation makes no ``pinv``."""
    model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
    spec = make_constraint("incompressibility")
    state = initial_state(model, spec, 4, 0.01, velocity=0.005)
    counts = {"pinv": 0}
    _spy(monkeypatch, counts, np.linalg, "pinv", "pinv")
    cauchy._evaluate(model, spec, state)
    assert counts["pinv"] == 0


@pytest.mark.parametrize("integrator, stages", [("rk4", 4), ("euler", 1)])
@pytest.mark.parametrize("constrained", [False, True])
def test_evolve_reuses_the_recorded_field_as_first_stage(monkeypatch, integrator,
                                                         stages, constrained):
    model = make_model("wave")
    if constrained:
        spec, state = TRANSPORT, initial_state(WAVE, TRANSPORT, 16, 0.1)
    else:
        spec, state = None, initial_state(WAVE, None, 16, 1.0)
    want = reference_evolve(model, spec, state, 1e-3, 3, integrator)
    # the recorder and the stages (through sode_vector_field) share _evaluate
    counts = {"field": 0}
    _spy(monkeypatch, counts, cauchy, "_evaluate", "field")
    res = evolve(model, spec, state, 1e-3, 3, integrator)
    assert counts["field"] == 3 * stages + 1
    got = res.states[-1]
    assert got.t == want.t
    assert np.array_equal(cauchy._pack(got), cauchy._pack(want))


@pytest.mark.parametrize("scenario", ["wave", "fluid"])
def test_evolve_evaluates_each_state_once(monkeypatch, scenario):
    """The diagnostics of a recorded state come from the field's evaluation
    of it, so a 2-step RK4 run builds the jet, the derivative bundle and the
    constraint values once per field evaluation: steps x stages + 1 = 9."""
    if scenario == "wave":
        model, spec = WAVE, TRANSPORT
        state = initial_state(model, spec, 16, 0.1)
    else:
        model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
        spec, state = make_constraint("incompressibility"), fluid_fulljet_state(N=4)
    counts = dict.fromkeys(["jet", "bundle", "values"], 0)
    _spy(monkeypatch, counts, CauchyState, "jet_arrays", "jet")
    _spy(monkeypatch, counts, cauchy, "derivative_bundle_arrays", "bundle")
    _spy(monkeypatch, counts, ConstraintSpec, "evaluate", "values")
    evolve(model, spec, state, 1e-3, 2, "rk4")
    assert counts == {"jet": 9, "bundle": 9, "values": 9}


def test_energy_of_a_free_wave_slice():
    # L = (v0^2 - v1^2) / 2: the energy density v0 dL/dv0 - L is
    # (v0^2 + v1^2) / 2, with v0 = c and v1 = 2 pi A cos(2 pi u)
    A, c, Nu = 0.3, 0.7, 64
    u = np.arange(Nu) / Nu
    state = CauchyState(0.0, A * np.sin(2 * np.pi * u)[:, None], "pde",
                        ydot=np.full((Nu, 1), c))
    energy = evolve(make_model("wave"), None, state, 1e-3, 0).diagnostics["energy"]
    assert energy[0] == pytest.approx((c * c + 2 * np.pi ** 2 * A * A) / 2, rel=1e-12)


def test_stabilized_evolution_bounds_the_drift():
    model = make_model("wave")
    spec = nonlinear_wave_spec()
    state = initial_state(model, spec, 32, 0.1)
    # the intermediate stages sit O(dt^2) off the set, stabilized or not
    free = evolve(model, spec, state, 1e-2, 10, "rk4", drift_tol=1e-3)
    held = evolve(model, spec, state, 1e-2, 10, "rk4", drift_tol=1e-3, stabilize=True)
    drift = free.diagnostics["max_phi"].max()
    assert drift > 1e-7  # RK4 leaves a nonlinear constraint set
    assert held.diagnostics["max_phi"].max() < min(1e-13, drift)
    # every step starts from the projected state's own field
    want = reference_evolve(model, spec, state, 1e-2, 10, "rk4", stabilize=True,
                            drift_tol=1e-3)
    assert np.array_equal(cauchy._pack(held.states[-1]), cauchy._pack(want))


def test_stabilization_reprojects():
    model, spec = WAVE, TRANSPORT
    state = initial_state(model, spec, 64, 0.1)
    off = CauchyState(
        0.0, state.y, "fulljet", v0=state.v0 + 1e-7, vi=state.vi
    )
    fixed = project_onto_constraint(spec, off)
    xj, yj, vj = fixed.jet_arrays()
    assert np.abs(spec.values_arrays(xj, yj, vj)).max() < 1e-13


def test_pde_mode_reconstructs_spatial_jet():
    state = initial_state(WAVE, None, 32, 1.0)
    vi = state.spatial_jet()
    u = np.arange(32) / 32
    want = 2 * np.pi * np.cos(2 * np.pi * u)
    assert np.abs(vi[:, 0, 0] - want).max() < 1e-11


@pytest.mark.parametrize("derivative", ["spectral", "fd4"])
def test_a_state_carries_its_grid_derivative_through_the_field_and_the_run(derivative):
    """The spatial jet, the pinned block D_i v, the holonomy defect and every
    kept state of a run, stabilized or not, take the state's own grid
    derivative."""
    state = initial_state(WAVE, None, 32, 1.0, derivative=derivative)
    assert state.spatial_jet().tobytes() == grid_derivative(state.y, 1, derivative).tobytes()
    geom = cauchy._slice_geometry(WAVE, state)
    want = np.swapaxes(grid_derivative(geom.v, 1, derivative), -1, -2)
    assert geom.dv.tobytes() == want.tobytes()
    assert [s.derivative for s in evolve(WAVE, None, state, 1e-3, 2).states] == [derivative] * 3
    held = initial_state(WAVE, TRANSPORT, 16, 0.1, derivative=derivative)
    assert cauchy.holonomy_defect(held) == 0.0
    run = evolve(WAVE, TRANSPORT, held, 1e-3, 1, stabilize=True)
    assert [s.derivative for s in run.states] == [derivative] * 2


def test_bad_integrator_name_rejected():
    model = make_model("wave")
    with pytest.raises(InvalidArgumentError):
        evolve(model, None, initial_state(WAVE, None, 16, 1.0), 1e-3, 1, integrator="leapfrog")


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
        model, spec = WAVE, TRANSPORT
        state = initial_state(model, spec, 16, 0.1)
    else:
        model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
        spec = make_constraint("incompressibility")
        state = fluid_fulljet_state()
    field = sode_vector_field(model, spec, state)
    assert np.abs(field.dv).max() > 1e-3
    G, n = state.grid_shape, state.n
    x, y, v = state.jet_arrays()
    Gsp = np.swapaxes(grid_derivative(v, n), -1, -2)
    for idx in np.ndindex(G):
        p = JetPoint(x[idx], y[idx], v[idx])
        bundle = derivative_bundle(model, p)
        cp = spec.at(p)
        zb = solve_zeta(bundle, cp.coeffs)
        free = solve_free_ddw(bundle, p.v, fixed_spatial=Gsp[idx])
        proj = project_connection(free, build_projectors(zb, cp))
        np.testing.assert_array_equal(field.dv[idx], proj.coeffs.Gamma2[:, 0, :])


def test_unsolvable_temporal_block_names_the_grid_point():
    # L = y - v_1^2 / 2: the temporal block of the Hessian vanishes while
    # dL/dy = 1, so the temporal equations have no solution
    def fn(x, y, v):
        return y[0] - 0.5 * v[0][1] * v[0][1]

    model = LagrangianModel("no-time", Dims(1, 1), fn)
    with pytest.raises(DdwSolveError, match=r"at grid point \(\d+,\)"):
        sode_vector_field(model, None, initial_state(WAVE, None, 16, 1.0))


def test_raise_first_names_a_batched_index_and_nothing_else():
    found = {(1, 0): RegularityError("later"), (0, 2): CompatibilityError("first")}
    with pytest.raises(CompatibilityError, match=r"^at grid point \(0, 2\): first$"):
        raise_first(found)
    error = OffConstraintError("at a point")
    with pytest.raises(OffConstraintError) as exc:
        raise_first({(): error})
    assert exc.value is error and str(exc.value) == "at a point"
    raise_first({})


def test_a_singular_hessian_names_its_grid_point():
    # L = (v0^2 - (u - 1/4) v1^2) / 2 has the Hessian diag(1, 1/4 - u), which
    # is singular only at u = 1/4, grid point 4 of 16; the temporal block
    # solves everywhere, so the zeta solve is the first to fail
    def fn(x, y, v):
        return 0.5 * (v[0][0] * v[0][0]) - 0.5 * ((x[1] - 0.25) * (v[0][1] * v[0][1]))

    model = LagrangianModel("degenerate", Dims(1, 1), fn)
    spec = make_constraint("linear-transport", {"speed": 2.0})
    with pytest.raises(RegularityError, match=r"^at grid point \(4,\): Hessian is singular in "
                                              r"the zeta solve: Singular matrix$"):
        sode_vector_field(model, spec, initial_state(WAVE, spec, 16, 0.1))


def test_a_non_finite_bundle_names_its_grid_point():
    def fn(x, y, v):
        return 0.5 * (v[0][0] * v[0][0] - v[0][1] * v[0][1]) + 1.0 / (x[1] - 0.25)

    model = LagrangianModel("pole", Dims(1, 1), fn)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match=r"^at grid point \(4,\): model 'pole': "
                                                  r"non-finite L at index \(0,\)$"):
            sode_vector_field(model, None, initial_state(WAVE, None, 16, 1.0))


@pytest.mark.parametrize("dt", [1e300, 1.7e308])
@pytest.mark.parametrize("constrained", [False, True])
def test_a_step_that_overflows_names_a_grid_point_and_warns_nothing(constrained, dt):
    # dt = 1e300 overflows v^2 in the bundle of the first stage state, and
    # dt = 1.7e308 the stage update itself; the finiteness checks report both
    spec = TRANSPORT if constrained else None
    state = initial_state(WAVE, spec, 16, 0.1 if constrained else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"^integration blew up at step 1: at grid "
                                                   r"point \(0,\): model 'wave': non-finite L"):
            evolve(make_model("wave"), spec, state, dt, 3)


@pytest.mark.parametrize("shape", [(2, 1), (1, 1, 2), (16, 1, 2, 1)])
def test_custom_coefficients_have_shape_k_nx_m(shape):
    """A spec's constant coefficients are checked once, when it is built;
    leading axes are not a batch."""
    spec = make_constraint("linear-transport", {"speed": 2.0})
    with pytest.raises(DimensionMismatchError, match=r"expected \(1, 2, 1\)"):
        replace(spec, coeffs=np.ones(shape))
    custom = replace(spec, coeffs=[[[3.0], [-1.0]]])
    state = initial_state(WAVE, spec, 16, 0.1)
    x, y, v = state.jet_arrays()
    assert np.array_equal(chetaev_coefficients(custom, JetPoint(x[0], y[0], v[0])),
                          [[[3.0], [-1.0]]])


def test_tangent_rows_are_the_section_and_jet_derivatives():
    """T_i = d/du^i + D_i y d/dy + D_i v d/dv: the y-block is the grid
    derivative of the actual section (identity offset included, or the
    reconstructed spatial jet in pde mode), the v-block the grid derivative
    of the stacked jet, the one the field pins its spatial block to."""
    from nhfields.cauchy import _slice_geometry, _tangent_rows

    cases = [(make_model("fluid", {"kappa": 1.0, "beta": 1.0}), fluid_fulljet_state()),
             (WAVE, initial_state(WAVE, None, 32, 1.0))]
    for model, state in cases:
        G, n, m = state.grid_shape, state.n, state.m
        nx = n + 1
        T = _tangent_rows(_slice_geometry(model, state))
        v = state.jet_arrays()[2]
        assert T.shape == G + (n, Dims(n, m).N)
        for i in range(n):
            np.testing.assert_array_equal(T[..., i, :nx],
                                          np.broadcast_to(np.eye(nx)[i + 1], G + (nx,)))
            if state.mode == "pde":
                np.testing.assert_array_equal(T[..., i, nx : nx + m], v[..., :, 1 + i])
            else:
                np.testing.assert_array_equal(T[..., i, nx : nx + m],
                                              grid_derivative(state.y, n)[..., i] + np.eye(n)[i])
            np.testing.assert_array_equal(T[..., i, nx + m :],
                                          grid_derivative(v, n)[..., i].reshape(G + (m * nx,)))


def _fluid_8():
    return (make_model("fluid", {"kappa": 1.0, "beta": 1.0}),
            make_constraint("incompressibility"), fluid_fulljet_state(N=8))


def _constrained_wave_64():
    return WAVE, TRANSPORT, initial_state(WAVE, TRANSPORT, 64, 0.1)


_CHECKS = {
    "free": lambda model, spec, state, ws: free_sode_omega_values(model, state, ws),
    "ansatz": lambda model, spec, state, ws: constraint_ansatz_fit(model, spec, state, ws),
    "membership": lambda model, spec, state, ws: constrained_membership_check(
        model, spec, state, ws),
    "omega-tilde": lambda model, spec, state, ws: tilde_omega_contract(
        model, state, ws[0], ws[1]),
}


@pytest.mark.parametrize("check", sorted(_CHECKS))
@pytest.mark.parametrize("scenario", [_constrained_wave_64, _fluid_8],
                         ids=["wave", "fluid"])
def test_each_check_evaluates_its_slice_once(monkeypatch, scenario, check):
    model, spec, state = scenario()
    rng = np.random.default_rng(6)
    variations = [random_variation(state, rng) for _ in range(20)]
    counts = dict.fromkeys(["bundle", "differentials", "grid", "omega", "phi"], 0)
    _spy(monkeypatch, counts, cauchy, "derivative_bundle_arrays", "bundle")
    _spy(monkeypatch, counts, ConstraintSpec, "evaluate", "differentials")
    _spy(monkeypatch, counts, cauchy, "grid_derivative", "grid")
    _spy(monkeypatch, counts, cauchy, "omega_eval_batch", "omega")
    _spy(monkeypatch, counts, cauchy, "phi_eval_batch", "phi")
    _CHECKS[check](model, spec, state, variations)
    assert counts["bundle"] == 1
    assert counts["differentials"] <= 1
    assert counts["grid"] <= 2
    assert counts["omega"] == 1
    assert counts["phi"] <= 1


@pytest.mark.parametrize("scenario", ["wave", "fluid"])
def test_stacked_checks_match_a_loop_over_variations(scenario):
    """The checks evaluate their forms over a stacked axis; a loop over the
    variations, or over the basis vectors, through the one-pair functions
    gives the same values."""
    from nhfields.cauchy import _slice_geometry, _tangent_rows, ftilde_annihilator_rows
    from nhfields.constraint import coefficient_arrays, phi_eval_batch

    if scenario == "wave":
        model, spec, state = _constrained_wave_64()
    else:
        model = make_model("fluid", {"kappa": 1.0, "beta": 1.0})
        spec, state = make_constraint("incompressibility"), fluid_fulljet_state()
    rng = np.random.default_rng(7)
    variations = [random_variation(state, rng) for _ in range(5)]
    gamma = sode_vector_field(model, None, state)
    pgamma = sode_vector_field(model, spec, state)
    want = np.array([tilde_omega_contract(model, state, pgamma, W)
                     - tilde_omega_contract(model, state, gamma, W) for W in variations])
    got = constraint_ansatz_fit(model, spec, state, variations)["values"]
    # on the fluid the projection leaves the field unchanged (the free
    # temporal block has Gamma^a_{0i} = 0, so dphi(H_0) = 0): both sides are 0
    if scenario == "wave":
        assert np.abs(want).max() > 1e-3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

    geom = _slice_geometry(model, state)
    T = _tangent_rows(geom)
    C = coefficient_arrays(spec, spec.dphidv_arrays(geom.x, geom.y, geom.v))
    N = T.shape[-1]
    loop = np.stack([
        phi_eval_batch(C, geom.v, np.concatenate(
            [np.broadcast_to(np.eye(N)[j], T.shape[:-2] + (1, N)), T], axis=-2))
        for j in range(N)], axis=-1)
    np.testing.assert_array_equal(ftilde_annihilator_rows(C, geom.v, T), loop)


def test_a_16_cubed_fluid_step_peaks_below_its_traced_bound():
    """One RK4 step of the evolve-fluid scenario on a 16^3 grid peaks at
    13.5 MiB under tracemalloc: the bundle is eight 512-point chunks, holds
    only the blocks L reaches, and the pinned contraction runs over chunks
    of the same size.  It peaked at 18.6 MiB with the contraction's copy of
    the whole grid's H, gathered copies and every bundle output allocated."""
    model = make_model("fluid")
    spec = make_constraint("incompressibility")
    state = initial_state(model, spec, 16, 0.01, velocity=0.005)
    assert traced_peak(lambda: cauchy.evolve(model, spec, state, 1e-3, 1)) <= 14.0 * 2**20
