"""Constraint coefficients, forms, and rank checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhfields.cauchy import CauchyState
from nhfields.constraint import (
    ConstraintSpec,
    chetaev_coefficients,
    constraint_form_eval,
    constraint_forms,
    constraint_rank_check,
    load_custom_coeffs_csv,
    make_constraint,
    newton_onto_constraint,
    phi_eval_batch,
)
from nhfields.exceptions import (
    ConstraintRankError,
    EvaluationError,
    InvalidArgumentError,
    NhfieldsError,
    OffConstraintError,
)
from nhfields.exterior import TangentVector
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import make_model

from helpers import (
    KERNEL_MODELS,
    fluid_constraint_point,
    kernel_point,
    random_point,
    random_vector,
    wave_on_constraint_point,
    wedge_eval_oracle,
)


def basis(i, n=1, m=1):
    return TangentVector.basis(i, n, m)


def test_chetaev_linear_transport():
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = wave_on_constraint_point(np.random.default_rng(0))
    C = chetaev_coefficients(spec, p)
    assert C.shape == (1, 2, 1)
    assert np.allclose(C[0, :, 0], [1.0, -2.0])


def test_jet_independent_constraint_has_zero_coefficients():
    def phi(x, y, v):
        return y[0] - 0.3

    spec = ConstraintSpec(Dims(1, 1, 1), [phi])
    p = JetPoint([0.0, 0.0], [0.3], [[0.1, 0.2]])
    assert np.allclose(chetaev_coefficients(spec, p), 0.0)
    with pytest.raises(ConstraintRankError):
        constraint_rank_check(spec.at(p))


def test_fluid_chetaev_is_cofactor():
    spec = make_constraint("incompressibility")
    p = JetPoint(np.zeros(4), np.zeros(3), np.hstack([np.zeros((3, 1)), np.eye(3)]))
    C = chetaev_coefficients(spec, p)
    # C[alpha, mu, a]: temporal row zero, spatial block the identity cofactor
    assert np.allclose(C[0, 0, :], 0.0)
    assert np.allclose(C[0, 1:, :], np.eye(3))


def test_constraint_form_hand_value():
    # phi = v0 - 2 v1 at v = 0: Phi(e_y, e_x1) = C^0 theta(e_y) dx1(e_x1) = 1
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p = JetPoint([0.0, 0.0], [0.0], [[0.0, 0.0]])
    vals = constraint_form_eval(spec, p, [basis(2), basis(1)])
    assert vals[0] == pytest.approx(1.0)


def test_constraint_form_antisymmetry():
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(1)
    p = random_point(rng, 1, 1)
    u = random_vector(rng, 1, 1)
    assert constraint_form_eval(spec, p, [u, u])[0] == pytest.approx(0.0, abs=1e-14)


def test_constraint_form_against_wedge_oracle():
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_point(rng, 1, 1)
        vecs = [random_vector(rng, 1, 1) for _ in range(2)]
        form = constraint_forms(p, chetaev_coefficients(spec, p))[0]
        want = sum(
            c * wedge_eval_oracle(rows, vecs)
            for c, rows in zip(form.coeffs, form.factors)
        )
        assert constraint_form_eval(spec, p, vecs)[0] == pytest.approx(want, abs=1e-12)


def test_custom_matches_chetaev_when_fed_derivatives():
    base = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(3)
    p = random_point(rng, 1, 1)
    C = chetaev_coefficients(base, p)
    custom = replace(base, custom_coeffs=lambda _p: C)
    vecs = [random_vector(rng, 1, 1) for _ in range(2)]
    assert constraint_form_eval(base, p, vecs) == pytest.approx(
        constraint_form_eval(custom, p, vecs)
    )


def test_form_vanishes_on_contact_annihilating_horizontalish_family():
    # n+1 vectors that annihilate theta and contain two base-vertical
    # vectors make every constraint form vanish
    spec = make_constraint("linear-transport", {"speed": 2.0})
    rng = np.random.default_rng(4)
    p = random_point(rng, 1, 1)
    # v-block vectors are contact-annihilating and base-vertical
    u1 = TangentVector(np.zeros(2), np.zeros(1), rng.uniform(-1, 1, (1, 2)))
    u2 = TangentVector(np.zeros(2), np.zeros(1), rng.uniform(-1, 1, (1, 2)))
    assert constraint_form_eval(spec, p, [u1, u2])[0] == pytest.approx(0.0, abs=1e-14)


def test_rank_check_on_and_off_constraint():
    spec = make_constraint("linear-transport", {"speed": 2.0})
    p_on = wave_on_constraint_point(np.random.default_rng(5))
    assert constraint_rank_check(spec.at(p_on)) == 1
    p_off = JetPoint([0.0, 0.0], [0.0], [[1.0, 0.0]])
    with pytest.raises(OffConstraintError):
        constraint_rank_check(spec.at(p_off))


def test_dependent_constraints_rejected():
    def phi1(x, y, v):
        return v[0][0] - 2.0 * v[0][1]

    def phi2(x, y, v):
        return 2.0 * (v[0][0] - 2.0 * v[0][1])

    spec = ConstraintSpec(Dims(1, 1, 2), [phi1, phi2])
    p = wave_on_constraint_point(np.random.default_rng(6))
    with pytest.raises(ConstraintRankError):
        constraint_rank_check(spec.at(p))


def test_fluid_rank_on_constraint_set():
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = fluid_constraint_point(rng)
        assert constraint_rank_check(spec.at(p)) == 1


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model=KERNEL_MODELS, seed=st.integers(0, 2**32 - 1), points=st.integers(1, 4),
       k=st.integers(1, 3), pointwise=st.booleans(), chetaev=st.booleans())
@example(model=("fluid", {}), seed=8, points=3, k=1, pointwise=False, chetaev=True)
def test_phi_eval_batch_matches_oracle(model, seed, points, k, pointwise, chetaev):
    """The batched kernel against the constraint_forms term lists, point by
    point, on coefficients batched with their tuples and on pointwise
    coefficients broadcast over a batch of tuples.  The coefficients are
    random arrays, or the Chetaev coefficients of the registered constraint
    of the wave and the fluid."""
    model = make_model(*model)
    dims = model.dims
    rng = np.random.default_rng(seed)
    pts = [kernel_point(model, rng) for _ in range(points)]
    v = np.stack([p.v for p in pts])
    registered = {"wave": "linear-transport", "fluid": "incompressibility"}
    if chetaev and model.name in registered:
        spec = make_constraint(registered[model.name])
        C = np.stack([chetaev_coefficients(spec, p) for p in pts])
    else:
        C = rng.uniform(-1, 1, (points, k, dims.nx, dims.m))
    vecs = rng.uniform(-1, 1, (points, dims.nx, dims.N))
    if pointwise:
        got = phi_eval_batch(C[0], pts[0].v, vecs)
        want = np.stack([f.eval_batch(vecs) for f in constraint_forms(pts[0], C[0])], -1)
    else:
        got = phi_eval_batch(C, v, vecs)
        want = [[f.eval_batch(vecs[i][None])[0] for f in constraint_forms(p, C[i])]
                for i, p in enumerate(pts)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_custom_rank_deficient_coefficients_rejected():
    base = make_constraint("linear-transport", {"speed": 2.0})
    zero = replace(base, custom_coeffs=lambda _p: np.zeros((1, 2, 1)))
    p = wave_on_constraint_point(np.random.default_rng(9))
    assert constraint_rank_check(base.at(p)) == 1
    with pytest.raises(ConstraintRankError):
        constraint_rank_check(zero.at(p))


def test_custom_coeffs_csv(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("1.0,-2.0\n")
    C = load_custom_coeffs_csv(path, Dims(1, 1, 1))
    assert C.shape == (1, 2, 1)
    assert np.allclose(C[:, :, 0], [[1.0, -2.0]])
    with pytest.raises(InvalidArgumentError):
        load_custom_coeffs_csv(path, Dims(1, 2, 1))


# ---------------------------------------------------------------------------
# the Newton projection onto the constraint set


def _bent_transport():
    """phi = v0 - 2 v1 - 0.5 v1^2, nonlinear in the spatial jet."""
    return ConstraintSpec(Dims(1, 1, 1),
                          [lambda x, y, v: v[0][0] - 2.0 * v[0][1] - 0.5 * v[0][1] * v[0][1]])


def _wave_grid_jet(rng, N=16):
    u = np.arange(N) / N
    x = np.stack([np.zeros(N), u], axis=-1)
    y = np.sin(2 * np.pi * u)[:, None]
    v = rng.uniform(-1.0, 1.0, (N, 1, 2))
    return x, y, v


@pytest.mark.parametrize("cols", [slice(0, 1), slice(1, 2), slice(None)])
def test_newton_puts_a_wave_grid_on_the_constraint_set_moving_only_its_columns(cols):
    spec = _bent_transport()
    x, y, v = _wave_grid_jet(np.random.default_rng(3))
    out, converged = newton_onto_constraint(spec, x, y, v, cols, 1e-12, 50)
    assert converged
    assert np.max(np.abs(spec.values_arrays(x, y, out))) < 1e-12
    fixed = np.ones(2, dtype=bool)
    fixed[cols] = False
    assert np.array_equal(out[..., fixed], v[..., fixed])
    assert not np.array_equal(out, v)


def test_newton_puts_a_fluid_grid_on_the_constraint_set_moving_only_its_columns():
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(5)
    G = (4, 4, 4)
    state = CauchyState(0.0, rng.uniform(-0.01, 0.01, G + (3,)), "fulljet",
                        v0=rng.uniform(-0.1, 0.1, G + (3,)),
                        vi=np.eye(3) + rng.uniform(-0.05, 0.05, G + (3, 3)),
                        y_offset="identity")
    x, y, v = state.jet_arrays()
    assert np.max(np.abs(spec.values_arrays(x, y, v))) > 1e-3
    out, converged = newton_onto_constraint(spec, x, y, v, slice(1, None), 1e-12, 50)
    assert converged
    assert np.max(np.abs(spec.values_arrays(x, y, out))) < 1e-12
    assert np.array_equal(out[..., 0], v[..., 0])


def test_newton_without_a_real_root_does_not_converge():
    from nhfields.cli import sample_constraint_point
    from nhfields.lagrangian import make_model

    spec = ConstraintSpec(Dims(1, 1, 1), [lambda x, y, v: v[0][0] * v[0][0] + 1.0])
    x, y, v = _wave_grid_jet(np.random.default_rng(4))
    out, converged = newton_onto_constraint(spec, x, y, v, slice(None), 1e-12, 50)
    assert not converged and np.isfinite(out).all()
    with pytest.raises(NhfieldsError, match="Newton projection onto the constraint set failed"):
        sample_constraint_point(make_model("wave"), spec, np.random.default_rng(4))


def test_newton_on_non_finite_constraint_values_raises():
    x, y, v = _wave_grid_jet(np.random.default_rng(6))
    v[3, 0, 1] = np.inf
    with pytest.raises(EvaluationError, match="non-finite constraint values"):
        newton_onto_constraint(_bent_transport(), x, y, v, slice(0, 1), 1e-12, 50)
