"""Derivative bundles, regularity, and the Poincare-Cartan form Omega_L."""

import numpy as np
import pytest

from nhfields import autodiff as ad
from nhfields import lagrangian
from nhfields.exceptions import EvaluationError, InvalidArgumentError
from nhfields.exterior import TangentVector
from nhfields.fluid import FluidParams, fluid_lagrangian
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import (
    LagrangianModel,
    derivative_bundle,
    derivative_bundle_arrays,
    first_derivatives_arrays,
    hessian_flat,
    make_model,
    omega_eval_batch,
    omega_form,
    omega_L_eval,
    regularity_check,
)

from helpers import (
    dense_derivative_bundle,
    dense_first_derivatives,
    fd_hessian,
    fluid_constraint_point,
    random_point,
    random_vector,
    wedge_eval_oracle,
)


def basis(i, n=1, m=1):
    return TangentVector.basis(i, n, m)


def test_quadratic_bundle():
    model = make_model("quadratic", {"n": 1, "m": 2})
    p = random_point(np.random.default_rng(0), 1, 2)
    b = derivative_bundle(model, p)
    assert np.allclose(hessian_flat(b), np.eye(4))
    assert np.allclose(b.dLdy, 0.0)
    assert np.allclose(b.dLdv, p.v)


def test_wave_hessian_signature():
    model = make_model("wave")
    p = random_point(np.random.default_rng(1), 1, 1)
    b = derivative_bundle(model, p)
    assert np.allclose(hessian_flat(b), np.diag([1.0, -1.0]))


def test_fluid_hessian_matches_finite_differences():
    model = fluid_lagrangian(FluidParams())
    rng = np.random.default_rng(2)
    p = fluid_constraint_point(rng)
    b = derivative_bundle(model, p)

    def L_of_vflat(vflat):
        return model(JetPoint(p.x, p.y, vflat.reshape(3, 4)))

    H_ad = hessian_flat(b)
    # at step 1e-5 the central stencil's roundoff floor is eps/h^2 ~ 1e-6,
    # so the tight comparison runs at a near-optimal step
    H_fd = fd_hessian(L_of_vflat, p.v.reshape(-1), step=1e-4)
    scale = np.abs(H_fd).max()
    assert np.abs(H_ad - H_fd).max() / scale < 1e-6
    H_fd5 = fd_hessian(L_of_vflat, p.v.reshape(-1), step=1e-5)
    assert np.abs(H_ad - H_fd5).max() / scale < 5e-6
    # exact symmetry of the AD Hessian
    assert np.array_equal(H_ad, H_ad.T)


def test_mixed_derivative_blocks():
    # L = y v0 + x0 v1 exposes the y-v and x-v blocks
    from nhfields.lagrangian import LagrangianModel

    def fn(x, y, v):
        return y[0] * v[0][0] + x[0] * v[0][1]

    model = LagrangianModel("probe", Dims(1, 1), fn)
    p = random_point(np.random.default_rng(3), 1, 1)
    b = derivative_bundle(model, p)
    assert b.d2Ldydv[0, 0, 0] == pytest.approx(1.0)
    assert b.d2Ldydv[0, 0, 1] == pytest.approx(0.0)
    assert b.d2Ldxdv[0, 0, 1] == pytest.approx(1.0)
    assert b.d2Ldxdv[1, 0, 1] == pytest.approx(0.0)


@pytest.mark.parametrize("params", [
    {"n": 1.5}, {"n": 2.0}, {"m": 0}, {"n": -1}, {"m": True}, {"n": "2"},
])
def test_quadratic_model_dims_must_be_integers_at_least_one(params):
    with pytest.raises(InvalidArgumentError, match=f"{next(iter(params))} must be an integer"):
        make_model("quadratic", params)


@pytest.mark.parametrize("name, params", [
    ("wave", {"speed": 1.0}),
    ("quadratic", {"k": 1}),
    ("fluid", {"kappaa": 1.0}),
])
def test_models_reject_unknown_parameter_names(name, params):
    with pytest.raises(TypeError, match=next(iter(params))):
        make_model(name, params)


def test_regularity_quadratic_and_degenerate():
    model = make_model("quadratic", {"n": 1, "m": 1})
    p = random_point(np.random.default_rng(4), 1, 1)
    out = regularity_check(derivative_bundle(model, p))
    assert out["regular"] and out["det"] == pytest.approx(1.0)

    from nhfields.lagrangian import LagrangianModel

    def fn(x, y, v):
        return 0.5 * v[0][0] * v[0][0]  # no v1 dependence

    deg = LagrangianModel("degenerate", Dims(1, 1), fn)
    out = regularity_check(derivative_bundle(deg, p))
    assert out["det"] == pytest.approx(0.0) and not out["regular"]


def test_fluid_degenerate_without_offset():
    # pure W(J) with W'(1) = 0 leaves only the rank-one cofactor square at
    # the identity: not regular
    from nhfields import autodiff as ad
    from nhfields.lagrangian import LagrangianModel

    def fn(x, y, v):
        kin = sum(v[a][0] * v[a][0] for a in range(3))
        J = ad.det([[v[a][i + 1] for i in range(3)] for a in range(3)])
        return 0.5 * kin - 0.5 * (J - 1.0) * (J - 1.0)

    model = LagrangianModel("fluid-degenerate", Dims(3, 3), fn)
    p = JetPoint(np.zeros(4), np.zeros(3), np.hstack([np.zeros((3, 1)), np.eye(3)]))
    assert not regularity_check(derivative_bundle(model, p))["regular"]


def test_omega_wave_hand_values():
    """Hand expansion of the coordinate formula for the wave Lagrangian:
    Omega_L = -dv0 ^ theta ^ dx1 - dv1 ^ theta ^ dx0."""
    model = make_model("wave")
    p = JetPoint([0.0, 0.0], [0.0], [[0.5, -0.3]])
    e_x0, e_x1, e_y, e_v0, e_v1 = (basis(i) for i in range(5))
    assert omega_L_eval(model, p, [e_v0, e_y, e_x1]) == pytest.approx(-1.0)
    assert omega_L_eval(model, p, [e_v1, e_y, e_x0]) == pytest.approx(-1.0)
    # theta's -v0 dx0 component: Omega(e_v0, e_x0, e_x1) = +v0
    assert omega_L_eval(model, p, [e_v0, e_x0, e_x1]) == pytest.approx(0.5)


def test_omega_alternating_and_zero_on_repeats():
    model = make_model("wave")
    rng = np.random.default_rng(5)
    p = random_point(rng, 1, 1)
    u, w = random_vector(rng, 1, 1), random_vector(rng, 1, 1)
    assert omega_L_eval(model, p, [u, u, w]) == pytest.approx(0.0, abs=1e-12)
    v3 = random_vector(rng, 1, 1)
    a = omega_L_eval(model, p, [u, w, v3])
    b = omega_L_eval(model, p, [w, u, v3])
    assert a == pytest.approx(-b, abs=1e-12)


def test_omega_form_against_term_oracle():
    # every term evaluated with the independent cofactor oracle
    model = make_model("quadratic", {"n": 1, "m": 1, "coupling": 0.7})
    rng = np.random.default_rng(6)
    p = random_point(rng, 1, 1)
    form = omega_form(derivative_bundle(model, p), p)
    vecs = [random_vector(rng, 1, 1) for _ in range(3)]
    want = sum(
        c * wedge_eval_oracle(rows, vecs)
        for c, rows in zip(form.coeffs, form.factors)
    )
    assert form(vecs) == pytest.approx(want, abs=1e-12)


def test_omega_multilinearity():
    model = make_model("wave")
    rng = np.random.default_rng(7)
    p = random_point(rng, 1, 1)
    u, v, w, z = (random_vector(rng, 1, 1) for _ in range(4))
    a, b = 0.6, -1.4
    combo = TangentVector.from_components(
        a * u.components + b * v.components, 1, 1
    )
    lhs = omega_L_eval(model, p, [combo, w, z])
    rhs = a * omega_L_eval(model, p, [u, w, z]) + b * omega_L_eval(model, p, [v, w, z])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_omega_batch_matches_pointwise():
    model = fluid_lagrangian(FluidParams())
    rng = np.random.default_rng(8)
    pts = [fluid_constraint_point(rng) for _ in range(4)]
    x = np.stack([p.x for p in pts])
    y = np.stack([p.y for p in pts])
    v = np.stack([p.v for p in pts])
    bundle = derivative_bundle_arrays(model, x, y, v)
    vecs = rng.uniform(-1, 1, (4, 5, Dims(3, 3).N))
    got = omega_eval_batch(bundle, v, vecs)
    for i, p in enumerate(pts):
        form = omega_form(derivative_bundle(model, p), p)
        assert got[i] == pytest.approx(form.eval_batch(vecs[i][None])[0], abs=1e-10)


def test_pullback_euler_lagrange_pairing():
    """On tangent-lifted directions of a second-order jet, contracting
    Omega_L with a prolonged vertical field pairs with the Euler-Lagrange
    residual (the extremal characterization, evaluated pointwise)."""
    from nhfields.ddw import el_residual
    from nhfields.jet import Jet2Point

    model = make_model("wave")
    rng = np.random.default_rng(9)
    # second-order data of a section that is NOT a solution
    p = random_point(rng, 1, 1)
    w = rng.uniform(-1, 1, (1, 2, 2))
    w = 0.5 * (w + np.swapaxes(w, 1, 2))
    q = Jet2Point(p, w)
    E = el_residual(model, q)  # = y_tt - y_xx orientation

    # vertical field xi = xi(x) d/dy prolonged: dv = total derivative of xi
    xi = 0.83
    dxi = rng.uniform(-1, 1, 2)
    xi1 = TangentVector(np.zeros(2), [xi], dxi[None, :])
    # tangent lifts of the section: dx = e_mu, dy = v[:, mu], dv = w[:, :, mu]
    T = [
        TangentVector(np.eye(2)[mu], p.v[:, mu], q.w[:, :, mu]) for mu in range(2)
    ]
    val = omega_L_eval(model, p, [xi1, T[0], T[1]])
    # hand expansion for the wave: the dv0 and dv1 rows contribute
    # xi (w00 - w11), i.e. +E xi in the d/dx(dL/dv) - dL/dy orientation
    assert val == pytest.approx(E[0] * xi, abs=1e-10)


def _x_dependent_model():
    # explicit dependence on both base coordinates, and y through a product
    def fn(x, y, v):
        return (0.5 * (v[0][0] * v[0][0] - v[0][1] * v[0][1])
                + ad.sin(x[0]) * y[0] * v[0][1] + x[1] * v[0][0] * v[0][0])

    return LagrangianModel("x-dependent", Dims(1, 1), fn)


def _origin_product_model():
    # x^0 and y^0 enter only through x^0 y^0 v^0_0, whose gradient vanishes
    # at the origin: a probe there would drop both
    def fn(x, y, v):
        return 0.5 * (v[0][0] * v[0][0] - v[0][1] * v[0][1]) + x[0] * y[0] * v[0][0]

    return LagrangianModel("origin-product", Dims(1, 1), fn)


BUNDLE_MODELS = {
    "wave": lambda: make_model("wave"),
    "quadratic-coupled": lambda: make_model("quadratic", {"n": 2, "m": 2, "coupling": 0.7}),
    "fluid": lambda: make_model("fluid", {"kappa": 1.0, "beta": 1.0}),
    "fluid-mu": lambda: make_model("fluid", {"kappa": 1.0, "beta": 1.0, "mu": 0.5}),
    "x-dependent": _x_dependent_model,
    "origin-product": _origin_product_model,
}


def _chunk_points(model):
    d = model.active_inputs.size
    return max(1, lagrangian._CHUNK_BYTES // (8 * d * d))


@pytest.mark.parametrize("name", sorted(BUNDLE_MODELS))
@pytest.mark.parametrize("batch", ["()", "(1,)", "chunk+1", "8^3"])
def test_active_seeded_bundle_equals_the_dense_bundle(name, batch):
    model = BUNDLE_MODELS[name]()
    dims = model.dims
    shape = {"()": (), "(1,)": (1,), "chunk+1": (_chunk_points(model) + 1,),
             "8^3": (8, 8, 8)}[batch]
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, shape + (dims.nx,))
    y = rng.uniform(-1, 1, shape + (dims.m,))
    v = rng.uniform(-1, 1, shape + (dims.m, dims.nx))
    got = derivative_bundle_arrays(model, x, y, v)
    want = dense_derivative_bundle(model, x, y, v)
    for field in ("L", "dLdy", "dLdv", "H", "d2Ldydv", "d2Ldxdv"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and np.array_equal(a, b), field
    for a, b in zip(first_derivatives_arrays(model, x, y, v),
                    dense_first_derivatives(model, x, y, v)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_active_inputs_per_model():
    dims = Dims(3, 3)
    fluid_v = [dims.iv(a, mu) for a in range(3) for mu in range(4)]
    assert BUNDLE_MODELS["fluid"]().active_inputs.tolist() == fluid_v
    assert BUNDLE_MODELS["fluid-mu"]().active_inputs.tolist() == fluid_v
    assert BUNDLE_MODELS["wave"]().active_inputs.tolist() == [3, 4]
    # generic probe points find x^0 and y^0; x^1 is never read
    assert _origin_product_model().active_inputs.tolist() == [0, 2, 3, 4]
    # the coupling makes y active, never x
    quad = BUNDLE_MODELS["quadratic-coupled"]()
    assert quad.active_inputs.tolist() == list(range(3, Dims(2, 2).N))


def test_active_inputs_are_cached_on_the_instance():
    # a new model whose function reuses a collected closure's id still
    # gets its own probe
    for _ in range(3):
        model = _x_dependent_model()
        assert model.active_inputs.tolist() == [0, 1, 2, 3, 4]
        assert model.active_inputs is model.active_inputs
        del model
        assert make_model("wave").active_inputs.tolist() == [3, 4]


def test_a_model_without_active_inputs_is_rejected():
    def fn(x, y, v):
        return 0.0 * v[0][0]

    model = LagrangianModel("flat", Dims(1, 1), fn)
    with pytest.raises(EvaluationError, match="none of its inputs"):
        derivative_bundle(model, random_point(np.random.default_rng(1), 1, 1))
