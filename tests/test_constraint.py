"""Constraint coefficients, forms, and rank checks."""

import numpy as np
import pytest

from nhfields.constraint import (
    ConstraintSpec,
    chetaev_coefficients,
    constraint_form_eval,
    constraint_forms,
    constraint_rank_check,
    load_custom_coeffs_csv,
    make_constraint,
    phi_eval_batch,
)
from nhfields.exceptions import (
    ConstraintRankError,
    InvalidArgumentError,
    OffConstraintError,
)
from nhfields.exterior import TangentVector
from nhfields.jet import Dims, JetPoint

from helpers import (
    fluid_constraint_point,
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
        constraint_rank_check(spec, p)


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
    custom = make_constraint(
        "linear-transport", {"speed": 2.0}, coeff_mode="custom",
        custom_coeffs=lambda _p: C,
    )
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
    assert constraint_rank_check(spec, p_on) == 1
    p_off = JetPoint([0.0, 0.0], [0.0], [[1.0, 0.0]])
    with pytest.raises(OffConstraintError):
        constraint_rank_check(spec, p_off)


def test_dependent_constraints_rejected():
    def phi1(x, y, v):
        return v[0][0] - 2.0 * v[0][1]

    def phi2(x, y, v):
        return 2.0 * (v[0][0] - 2.0 * v[0][1])

    spec = ConstraintSpec(Dims(1, 1, 2), [phi1, phi2])
    p = wave_on_constraint_point(np.random.default_rng(6))
    with pytest.raises(ConstraintRankError):
        constraint_rank_check(spec, p)


def test_fluid_rank_on_constraint_set():
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = fluid_constraint_point(rng)
        assert constraint_rank_check(spec, p) == 1


def test_phi_eval_batch_matches_forms():
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(8)
    pts = [fluid_constraint_point(rng) for _ in range(3)]
    v = np.stack([p.v for p in pts])
    C = np.stack([chetaev_coefficients(spec, p) for p in pts])
    vecs = rng.uniform(-1, 1, (3, 4, spec.dims.N))
    got = phi_eval_batch(C, v, vecs)
    for i, p in enumerate(pts):
        form = constraint_forms(p, C[i])[0]
        assert got[i, 0] == pytest.approx(form.eval_batch(vecs[i][None])[0], abs=1e-12)


def test_custom_rank_deficient_coefficients_rejected():
    base = make_constraint("linear-transport", {"speed": 2.0})
    zero = make_constraint(
        "linear-transport", {"speed": 2.0}, coeff_mode="custom",
        custom_coeffs=lambda _p: np.zeros((1, 2, 1)),
    )
    p = wave_on_constraint_point(np.random.default_rng(9))
    assert constraint_rank_check(base, p) == 1
    with pytest.raises(ConstraintRankError):
        constraint_rank_check(zero, p)


def test_custom_coeffs_csv(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("1.0,-2.0\n")
    C = load_custom_coeffs_csv(path, Dims(1, 1, 1))
    assert C.shape == (1, 2, 1)
    assert np.allclose(C[:, :, 0], [[1.0, -2.0]])
    with pytest.raises(InvalidArgumentError):
        load_custom_coeffs_csv(path, Dims(1, 2, 1))
