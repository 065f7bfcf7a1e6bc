"""Derivative bundles, regularity, and the Poincare-Cartan form Omega_L."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhfields import autodiff as ad
from nhfields import lagrangian
from nhfields.constraint import chetaev_coefficients, make_constraint, phi_eval_batch
from nhfields.exceptions import (
    DimensionMismatchError,
    EvaluationError,
    InvalidArgumentError,
    RegularityError,
)
from nhfields.exterior import TangentVector
from nhfields.fluid import FluidParams, fluid_lagrangian
from nhfields.jet import Dims, JetPoint, seed_inputs
from nhfields.lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    derivative_bundle,
    derivative_bundle_arrays,
    hessian_flat,
    make_model,
    omega_eval_batch,
    omega_form,
    omega_L_eval,
    regularity_check,
)
from nhfields.projector import solve_zeta

from helpers import (
    KERNEL_MODELS,
    bundle_at,
    bundle_from_dense,
    dense_derivative_bundle,
    fd_hessian,
    fluid_constraint_point,
    kernel_point,
    random_point,
    random_vector,
    traced_peak,
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


def test_a_model_that_leaves_dual_arithmetic_raises():
    model = LagrangianModel("constant", Dims(1, 1), lambda x, y, v: 1.0)
    with pytest.raises(EvaluationError, match="^model 'constant' did not stay in dual"):
        derivative_bundle_arrays(model, np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 1, 2)))


def test_batched_regularity_and_bundle_errors_per_point():
    """regularity_check over stacked points gives each point's pointwise
    verdict, and bundle_errors names each point whose bundle is not finite
    with the error its pointwise bundle raises."""
    def fn(x, y, v):
        return 0.5 * v[0][1] * v[0][1] + 1.0 / v[0][0]

    model = LagrangianModel("pole", Dims(1, 1), fn)
    rng = np.random.default_rng(12)
    points = [random_point(rng, 1, 1) for _ in range(3)]
    points[1] = JetPoint(points[1].x, points[1].y, [[0.0, 0.5]])
    x, y, v = (np.stack([getattr(p, key) for p in points]) for key in "xyv")
    with np.errstate(divide="ignore", invalid="ignore"):
        bundle = derivative_bundle_arrays(model, x, y, v)
        errors = lagrangian.bundle_errors(model, bundle)
        assert list(errors) == [(1,)]
        with pytest.raises(EvaluationError) as exc:
            derivative_bundle(model, points[1])
    assert str(errors[(1,)]) == str(exc.value) == "model 'pole': non-finite L at index (0,)"
    batch = regularity_check(bundle[np.array([True, False, True])])
    for j, i in enumerate((0, 2)):
        one = regularity_check(derivative_bundle(model, points[i]))
        assert all(np.array_equal(one[key], batch[key][j]) for key in one)


def test_regularity_does_not_move_with_the_units_of_l():
    # rho scales L, so the fluid Hessian determinant scales as rho^12 while
    # its condition number stays put: the verdict follows the condition number
    p = fluid_constraint_point(np.random.default_rng(10))
    ref = regularity_check(derivative_bundle(fluid_lagrangian(FluidParams()), p))
    out = regularity_check(derivative_bundle(fluid_lagrangian(FluidParams(rho=0.01)), p))
    assert out["det"] == pytest.approx(ref["det"] * 0.01**12)
    assert out["cond"] == pytest.approx(ref["cond"]) and out["cond"] < 10
    assert ref["regular"] and out["regular"]


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


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(model=KERNEL_MODELS, seed=st.integers(0, 2**32 - 1), points=st.integers(1, 4),
       pointwise=st.booleans(), random_bundle=st.booleans(),
       stacked=st.sampled_from([0, 2, 3]))
@example(model=("fluid", {}), seed=8, points=4, pointwise=False, random_bundle=False,
         stacked=0)
@example(model=("quadratic", {"n": 3, "m": 3, "coupling": 1.5}), seed=3, points=4,
         pointwise=False, random_bundle=True, stacked=3)
def test_omega_eval_batch_matches_oracle(model, seed, points, pointwise, random_bundle,
                                         stacked):
    """The batched kernel against the omega_form term list, point by point,
    on a bundle batched with its tuples and on a pointwise bundle broadcast
    over a batch of tuples; a random bundle fills every block, the dx-block
    d2L/dx dv included.  ``stacked`` > 0 puts that many tuple batches in
    front of the batch, as the Cauchy checks stack their variations."""
    model = make_model(*model)
    dims = model.dims
    rng = np.random.default_rng(seed)
    pts = [kernel_point(model, rng) for _ in range(points)]
    v = np.stack([p.v for p in pts])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in pts]),
                                      np.stack([p.y for p in pts]), v)
    if random_bundle:
        bundle = DerivativeBundle(*(rng.uniform(-1, 1, np.shape(getattr(bundle, f.name)))
                                    for f in dataclasses.fields(bundle)))
    lead = (stacked,) if stacked else ()
    vecs = rng.uniform(-1, 1, lead + (points, dims.nx + 1, dims.N))
    flat = vecs.reshape(-1, points, dims.nx + 1, dims.N)
    if pointwise:
        got = omega_eval_batch(bundle_at(bundle, 0), pts[0].v, vecs)
        want = [omega_form(bundle_at(bundle, 0), pts[0]).eval_batch(tup) for tup in flat]
    else:
        got = omega_eval_batch(bundle, v, vecs)
        want = [[omega_form(bundle_at(bundle, i), p).eval_batch(tup[i][None])[0]
                 for i, p in enumerate(pts)] for tup in flat]
    np.testing.assert_allclose(got, np.reshape(want, lead + (points,)), rtol=0, atol=1e-10)


def test_omega_eval_batch_broadcasts_one_tuple_over_a_batched_bundle():
    """The batch shape is the bundle's when the tuple is a single one."""
    model = make_model("quadratic", {"n": 2, "m": 2, "coupling": 0.5})
    rng = np.random.default_rng(5)
    pts = [random_point(rng, 2, 2) for _ in range(3)]
    v = np.stack([p.v for p in pts])
    bundle = derivative_bundle_arrays(model, np.stack([p.x for p in pts]),
                                      np.stack([p.y for p in pts]), v)
    vecs = rng.uniform(-1, 1, (4, model.dims.N))
    want = [omega_form(bundle_at(bundle, i), p).eval_batch(vecs[None])[0]
            for i, p in enumerate(pts)]
    np.testing.assert_allclose(omega_eval_batch(bundle, v, vecs), want, rtol=0, atol=1e-10)


def test_form_kernels_take_no_lapack_determinant(monkeypatch):
    """Omega_L and Phi_alpha are evaluated from shared minors of the dx
    rows: neither kernel calls np.linalg.det, on a fluid point or on a
    batch of wave points (their values are the oracle properties' job)."""

    def no_det(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    rng = np.random.default_rng(11)
    p = fluid_constraint_point(rng)
    bundle = derivative_bundle(make_model("fluid"), p)
    C = chetaev_coefficients(make_constraint("incompressibility"), p)
    wave = [random_point(rng, 1, 1) for _ in range(6)]
    v = np.stack([q.v for q in wave])
    wave_bundle = derivative_bundle_arrays(make_model("wave"), np.stack([q.x for q in wave]),
                                           np.stack([q.y for q in wave]), v)
    monkeypatch.setattr(np.linalg, "det", no_det)
    assert omega_eval_batch(bundle, p.v, rng.uniform(-1, 1, (20, 5, 19))).shape == (20,)
    assert phi_eval_batch(C, p.v, rng.uniform(-1, 1, (20, 4, 19))).shape == (20, 1)
    assert omega_eval_batch(wave_bundle, v, rng.uniform(-1, 1, (6, 3, 5))).shape == (6,)
    assert phi_eval_batch(rng.uniform(-1, 1, (6, 2, 2, 1)), v,
                          rng.uniform(-1, 1, (6, 2, 5))).shape == (6, 2)


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
    # at the origin; the Dual2 support keeps both wherever L is evaluated
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


# the inputs each model reads: the support of its Dual2 result
SUPPORTS = {
    "fluid": [Dims(3, 3).iv(a, mu) for a in range(3) for mu in range(4)],
    "fluid-mu": [Dims(3, 3).iv(a, mu) for a in range(3) for mu in range(4)],
    "wave": [3, 4],
    "x-dependent": [0, 1, 2, 3, 4],
    # x^0 and y^0 enter only through x^0 y^0 v^0_0; x^1 is never read
    "origin-product": [0, 2, 3, 4],
    # the coupling makes y a support input, never x
    "quadratic-coupled": list(range(3, Dims(2, 2).N)),
}

BUNDLE_FIELDS = ("L", "dLdy", "dLdv", "H", "d2Ldydv", "d2Ldxdv")


def _chunk_points(model):
    return lagrangian.chunk_points(model.dims.m * model.dims.nx)


def _random_jet(rng, dims, shape):
    return (rng.uniform(-1, 1, shape + (dims.nx,)), rng.uniform(-1, 1, shape + (dims.m,)),
            rng.uniform(-1, 1, shape + (dims.m, dims.nx)))


def _off_support(model, support):
    """The bundle entries of inputs outside ``support``, as boolean masks."""
    off = ~np.isin(np.arange(model.dims.N), support)
    return bundle_from_dense(model, np.False_, off, off[:, None] | off[None, :])


def _assert_dense_bits(got, want, off):
    """got has the bits of the dense bundle want on the support and +0.0
    off it, where the dense pass may leave -0.0."""
    for field in BUNDLE_FIELDS:
        a, b, mask = getattr(got, field), getattr(want, field), getattr(off, field)
        assert a.shape == b.shape, field
        assert np.all(np.where(mask, b, 0.0) == 0.0), field
        assert np.array_equal(a.view(np.int64), np.where(mask, 0.0, b).view(np.int64)), field


@pytest.mark.parametrize("name", sorted(BUNDLE_MODELS))
@pytest.mark.parametrize("batch", ["()", "(1,)", "chunk+1", "8^3"])
def test_active_seeded_bundle_equals_the_dense_bundle(name, batch):
    model = BUNDLE_MODELS[name]()
    shape = {"()": (), "(1,)": (1,), "chunk+1": (_chunk_points(model) + 1,),
             "8^3": (8, 8, 8)}[batch]
    x, y, v = _random_jet(np.random.default_rng(11), model.dims, shape)
    _assert_dense_bits(derivative_bundle_arrays(model, x, y, v),
                       dense_derivative_bundle(model, x, y, v),
                       _off_support(model, SUPPORTS[name]))


def test_an_8_cubed_fluid_bundle_is_one_chunk_and_a_16_cubed_one_eight():
    fluid = BUNDLE_MODELS["fluid"]()
    calls = []

    def fn(x, y, v):
        calls.append(1)
        return fluid.fn(x, y, v)

    model = LagrangianModel("counted", fluid.dims, fn)
    for n, chunks in ((8, 1), (16, 8)):
        calls.clear()
        derivative_bundle_arrays(model, *_random_jet(np.random.default_rng(2), model.dims,
                                                     (n, n, n)))
        assert len(calls) == chunks


@pytest.mark.parametrize("name, shape", [("fluid", (700,)), ("wave", (1500,))])
def test_the_bundle_has_the_same_bits_at_every_chunk_size(monkeypatch, name, shape):
    model = BUNDLE_MODELS[name]()
    jet = _random_jet(np.random.default_rng(6), model.dims, shape)
    width = model.dims.m * model.dims.nx
    bundles = []
    for points in (1, 7, 256, 512, shape[0]):
        monkeypatch.setattr(lagrangian, "_CHUNK_BYTES", points * 8 * width**2)
        assert _chunk_points(model) == points
        bundles.append(derivative_bundle_arrays(model, *jet))
    for bundle in bundles[1:]:
        for field in BUNDLE_FIELDS:
            a, b = getattr(bundle, field), getattr(bundles[0], field)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), field


def _holds_no_memory(arr):
    """Whether arr is a broadcast view whose every stride is zero."""
    return arr.ndim > 0 and not any(arr.strides)


def _allocated_bytes(bundle):
    """The bytes of the bundle's fields that hold memory of their own: all
    but the broadcast zeros."""
    return sum(a.nbytes for a in (getattr(bundle, f) for f in BUNDLE_FIELDS)
               if not _holds_no_memory(a))


def test_bundle_memory_is_its_outputs_plus_a_bounded_chunk():
    # a 16^3 fluid grid: the allocated outputs (L, dLdv and H) take 5.1 MB;
    # one 512-point chunk's temporaries take about 2.6 MiB, while the whole
    # grid in one chunk would take 15 MiB
    model = BUNDLE_MODELS["fluid"]()
    x, y, v = _random_jet(np.random.default_rng(5), model.dims, (16, 16, 16))
    outputs = _allocated_bytes(derivative_bundle_arrays(model, x, y, v))
    assert outputs == 8 * 16**3 * (1 + 12 + 12 * 12)
    assert traced_peak(lambda: derivative_bundle_arrays(model, x, y, v)) < outputs + 3 * 2**20


def test_a_one_chunk_bundle_allocates_its_outputs_after_the_model_pass():
    # an 8^3 fluid grid is one chunk; its outputs take 0.97 MiB and are not
    # held beside the temporaries of the model pass
    model = BUNDLE_MODELS["fluid"]()
    dims = model.dims
    shape = (8, 8, 8)
    assert _chunk_points(model) == int(np.prod(shape))
    x, y, v = _random_jet(np.random.default_rng(6), dims, shape)
    outputs = 8 * int(np.prod(shape)) * (1 + dims.N + dims.N * dims.m * dims.nx)
    peak = traced_peak(lambda: derivative_bundle_arrays(model, x, y, v))
    assert peak < max(outputs + 0.6 * 2**20, 2.2 * 2**20)


def test_an_8_cubed_fluid_model_pass_peaks_below_its_traced_bound():
    # the allocated outputs (0.61 MiB) and the model pass's temporaries peak
    # at 1.29 MiB: a product of one support adds its Hessian terms into its
    # result through one scratch row, W's blocks are added into L's through
    # views of its three runs, J is freed inside W, seeds share their arrays
    # and rho * L at rho = 1 copies nothing (1.75 MiB with a scratch block,
    # gathered copies and every output allocated)
    model = BUNDLE_MODELS["fluid"]()
    x, y, v = _random_jet(np.random.default_rng(6), model.dims, (8, 8, 8))
    assert traced_peak(lambda: derivative_bundle_arrays(model, x, y, v)) <= 1.35 * 2**20


def _y_reached_later_model():
    # the wave, plus y^0 v^0_0 in a chunk whose first x^0 is positive: a
    # support that differs from chunk to chunk
    def fn(x, y, v):
        wave = 0.5 * (v[0][0] * v[0][0] - v[0][1] * v[0][1])
        return wave + y[0] * v[0][0] if x[0].val.flat[0] > 0 else wave

    return LagrangianModel("y-later", Dims(1, 1), fn)


@pytest.mark.parametrize("name, zero", [
    ("fluid", ("dLdy", "d2Ldydv", "d2Ldxdv")),
    ("wave", ("dLdy", "d2Ldydv", "d2Ldxdv")),
    ("quadratic-coupled", ("d2Ldxdv",)),
    ("x-dependent", ()),
])
def test_blocks_l_never_reaches_are_read_only_zeros_that_hold_no_memory(name, zero):
    """Every field is read-only; a block no chunk reaches is a broadcast
    zero that holds no memory, and a block L reads (y through a coupling,
    x in the x-dependent model) is allocated."""
    model = BUNDLE_MODELS[name]()
    jet = _random_jet(np.random.default_rng(3), model.dims, (2, 3))
    bundle, dense = derivative_bundle_arrays(model, *jet), dense_derivative_bundle(model, *jet)
    for field in BUNDLE_FIELDS:
        arr = getattr(bundle, field)
        assert arr.shape == getattr(dense, field).shape, field
        assert not arr.flags.writeable, field
        assert _holds_no_memory(arr) == (field in zero), field
        if field in zero:
            assert np.array_equal(arr.view(np.int64), np.zeros(arr.shape).view(np.int64))
    assert lagrangian.bundle_errors(model, bundle) == {}


def test_a_block_a_later_chunk_reaches_first_is_zero_over_the_chunks_before(monkeypatch):
    model = _y_reached_later_model()
    x, y, v = _random_jet(np.random.default_rng(4), model.dims, (12,))
    x[:, 0] = np.repeat([-1.0, 1.0, -1.0], 4)  # only the middle chunk reaches y
    monkeypatch.setattr(lagrangian, "_CHUNK_BYTES", 4 * 8 * 2**2)
    bundle = derivative_bundle_arrays(model, x, y, v)
    chunks = [derivative_bundle_arrays(model, x[s], y[s], v[s])
              for s in (slice(0, 4), slice(4, 8), slice(8, 12))]
    assert not _holds_no_memory(bundle.dLdy)
    assert _holds_no_memory(chunks[0].dLdy)
    for field in BUNDLE_FIELDS:
        want = np.concatenate([getattr(c, field) for c in chunks])
        assert np.array_equal(getattr(bundle, field).view(np.int64), want.view(np.int64)), field


@pytest.mark.parametrize("x, y, v", [
    ((4, 2), (4, 1), (4, 2, 2)),
    ((4, 3), (4, 1), (4, 1, 2)),
    ((4, 2), (4, 2), (4, 1, 2)),
    ((3, 2), (3, 1), (4, 1, 2)),
    ((2,), (1,), (2,)),
], ids=["v-rows", "x-width", "y-width", "batch", "v-rank"])
def test_inputs_of_the_wrong_shape_raise_naming_the_expected_ones(x, y, v):
    model = make_model("wave")
    calls = []
    spied = dataclasses.replace(model, fn=lambda *args: calls.append(1) or model.fn(*args))
    with pytest.raises(DimensionMismatchError, match=r"\(2,\), \(1,\) and \(1, 2\)"):
        derivative_bundle_arrays(spied, np.zeros(x), np.zeros(y), np.ones(v))
    assert calls == []


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DerivativeBundle)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bundle_errors_of_the_whole_fields_are_those_of_the_point_search(field, bad):
    model = BUNDLE_MODELS["fluid"]()
    bundle = derivative_bundle_arrays(
        model, *_random_jet(np.random.default_rng(7), model.dims, (2, 3)))
    assert lagrangian.bundle_errors(model, bundle) == lagrangian._point_errors(model, bundle) == {}
    arr = getattr(bundle, field).copy()
    at = (1, 2) + (0,) * (arr.ndim - 3) + (arr.shape[-1] - 1,) * (arr.ndim > 2)
    arr[at] = bad
    planted = dataclasses.replace(bundle, **{field: arr})
    errors = lagrangian.bundle_errors(model, planted)
    ref = lagrangian._point_errors(model, planted)
    assert list(errors) == list(ref) == [(1, 2)]
    assert str(errors[(1, 2)]) == str(ref[(1, 2)]) == (
        f"model 'fluid': non-finite {field} at index {tuple(int(i) for i in at[2:])}"
        if arr.ndim > 2 else f"model 'fluid': non-finite {field} at index (0,)")


def test_an_empty_batch_gives_an_empty_bundle():
    model = BUNDLE_MODELS["fluid"]()
    x, y, v = _random_jet(np.random.default_rng(0), model.dims, (0,))
    bundle = derivative_bundle_arrays(model, x, y, v)
    assert bundle.L.shape == (0,) and bundle.H.shape == (0, 3, 4, 3, 4)
    assert bundle.d2Ldxdv.shape == (0, 4, 3, 4)


def test_bundle_support_per_model():
    rng = np.random.default_rng(3)
    for name, support in SUPPORTS.items():
        model = BUNDLE_MODELS[name]()
        x, y, v = _random_jet(rng, model.dims, (4,))
        assert model.fn(*seed_inputs(ad.Dual2, x, y, v, model.dims)).idx == tuple(support)
        bundle = derivative_bundle_arrays(model, x, y, v)
        off = _off_support(model, support)
        for field in BUNDLE_FIELDS:
            arr = getattr(bundle, field)
            assert np.array_equal(np.where(getattr(off, field), arr, 0.0).view(np.int64),
                                  np.zeros(arr.shape, dtype=np.int64)), (name, field)


def test_a_flat_model_gives_a_zero_bundle_that_is_not_regular():
    # 0.0 * v^0_0 puts v^0_0 in the support but no derivative in the bundle;
    # the zero Hessian is reported where the Hessian is used
    def fn(x, y, v):
        return 0.0 * v[0][0]

    model = LagrangianModel("flat", Dims(1, 1), fn)
    bundle = derivative_bundle(model, random_point(np.random.default_rng(1), 1, 1))
    for field in BUNDLE_FIELDS:
        assert not np.any(getattr(bundle, field)), field
    assert not regularity_check(bundle)["regular"]
    with pytest.raises(RegularityError):
        solve_zeta(bundle, np.ones((1, 2, 1)))


# ---------------------------------------------------------------------------
# random Lagrangians on random subsets of the inputs against the dense oracle

RANDOM_OPS = {
    "add": lambda a, b, c, d: a + b,
    "sub": lambda a, b, c, d: a - b,
    "mul": lambda a, b, c, d: a * b,
    "div": lambda a, b, c, d: a / (1.0 + b * b),
    "sin": lambda a, b, c, d: ad.sin(a),
    "exp": lambda a, b, c, d: ad.exp(ad.sin(a)),
    "det": lambda a, b, c, d: ad.det([[a, b], [c, d]]),
}


@st.composite
def random_lagrangians(draw):
    """A random L and the sorted inputs it reads: a random program over
    some of the N inputs, plus one input that enters only as 0.0 * input
    and one that enters only through a product vanishing at the origin."""
    dims = Dims(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    read = draw(st.lists(st.integers(0, dims.N - 1), min_size=3, max_size=6, unique=True))
    zeroed, vanishing, main = read[0], read[1], read[2:]
    j, k = draw(st.sampled_from(main)), draw(st.sampled_from(main))
    program = [(draw(st.sampled_from(sorted(RANDOM_OPS))),
                draw(st.lists(st.integers(0, 99), min_size=4, max_size=4)))
               for _ in range(draw(st.integers(0, 6)))]

    def fn(x, y, v):
        flat = [*x, *y, *(e for row in v for e in row)]
        regs = [flat[i] for i in main]
        for op, args in program:
            regs.append(RANDOM_OPS[op](*(regs[i % len(regs)] for i in args)))
        total = regs[0]
        for reg in regs[1:]:  # every register, so every input in main counts
            total = total + reg
        return total + 0.0 * flat[zeroed] + flat[vanishing] * flat[j] * flat[k]

    return LagrangianModel("random", dims, fn), sorted(read)


@settings(deadline=None, database=None, derandomize=True)
@given(case=random_lagrangians(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_lagrangian_bundle_equals_the_dense_bundle(case, data, seed):
    model, read = case
    shape = data.draw(st.sampled_from([(), (1,), (3,), (2, 2), (_chunk_points(model) + 1,)]))
    x, y, v = _random_jet(np.random.default_rng(seed), model.dims, shape)
    _assert_dense_bits(derivative_bundle_arrays(model, x, y, v),
                       dense_derivative_bundle(model, x, y, v), _off_support(model, read))
