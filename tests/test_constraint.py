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
    constraint_ranks,
    load_custom_coeffs_csv,
    make_constraint,
    newton_onto_constraint,
    off_constraint_errors,
    phi_eval_batch,
)
from nhfields.exceptions import (
    ConstraintRankError,
    EvaluationError,
    InvalidArgumentError,
    NhfieldsError,
    OffConstraintError,
)
from nhfields.exterior import TangentVector, split_blocks
from nhfields.jet import Dims, JetPoint, seed_inputs
from nhfields.lagrangian import make_model

from helpers import (
    KERNEL_MODELS,
    DenseDual,
    fluid_constraint_point,
    kernel_point,
    random_point,
    random_vector,
    same_bits_up_to_zero_sign,
    traced_peak,
    wave_on_constraint_point,
    wedge_eval_oracle,
)


def basis(i, n=1, m=1):
    return TangentVector.basis(i, n, m)


def test_builtin_constraints_have_fixed_dims():
    assert make_constraint("linear-transport").dims == Dims(1, 1, 1)
    assert make_constraint("incompressibility").dims == Dims(3, 3, 1)
    for name in ("linear-transport", "incompressibility"):
        with pytest.raises(TypeError):
            make_constraint(name, {"dims": Dims(1, 1, 1)})


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
    custom = replace(base, coeffs=C)
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


def test_batched_constraint_checks_name_each_failing_point():
    """off_constraint_errors and constraint_ranks over stacked points give
    each failing point the error its pointwise check raises, and nothing to
    the others."""
    def phi1(x, y, v):
        return v[0][0] - 2.0 * v[0][1]

    def phi2(x, y, v):  # dphi2 = (1 + v^0_0) dphi1 where phi1 = 0
        return phi1(x, y, v) * (1.0 + v[0][0])

    spec = ConstraintSpec(Dims(1, 1, 2), [phi1, phi2])
    rng = np.random.default_rng(9)
    points = [wave_on_constraint_point(rng) for _ in range(2)]
    points.append(JetPoint([0.0, 0.0], [0.0], [[1.0, 0.0]]))  # off the set
    points.append(JetPoint([0.0, 0.0], [0.0], [[0.0, 0.0]]))
    x, y, v = (np.stack([getattr(p, key) for p in points]) for key in "xyv")
    phi, dphi = spec.evaluate(x, y, v)
    off = off_constraint_errors(phi, spec.on_tol)
    assert list(off) == [(2,)]
    with pytest.raises(OffConstraintError) as exc:
        spec.at(points[2])
    assert str(off[(2,)]) == str(exc.value)
    dphidv = spec.dphidv_arrays(x, y, v)
    rank, errors = constraint_ranks(dphidv, np.swapaxes(dphidv, -1, -2))
    # rank 1 < k = 2 on the constraint set, 2 off it
    assert rank.tolist() == [1, 1, 2, 1] and list(errors) == [(0,), (1,), (3,)]
    with pytest.raises(ConstraintRankError) as exc:
        constraint_rank_check(spec.at(points[3]))
    assert str(errors[(3,)]) == str(exc.value)


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
       k=st.integers(1, 3), pointwise=st.booleans(), chetaev=st.booleans(),
       stacked=st.sampled_from([0, 2, 3]))
@example(model=("fluid", {}), seed=8, points=3, k=1, pointwise=False, chetaev=True,
         stacked=0)
@example(model=("quadratic", {"n": 3, "m": 3, "coupling": 1.5}), seed=3, points=4, k=3,
         pointwise=False, chetaev=False, stacked=3)
def test_phi_eval_batch_matches_oracle(model, seed, points, k, pointwise, chetaev, stacked):
    """The batched kernel against the constraint_forms term lists, point by
    point, on coefficients batched with their tuples and on pointwise
    coefficients broadcast over a batch of tuples.  The coefficients are
    random arrays, or the Chetaev coefficients of the registered constraint
    of the wave and the fluid.  ``stacked`` > 0 puts that many tuple batches
    in front of the batch, as ``ftilde_annihilator_rows`` stacks its basis."""
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
    lead = (stacked,) if stacked else ()
    vecs = rng.uniform(-1, 1, lead + (points, dims.nx, dims.N))
    flat = vecs.reshape(-1, points, dims.nx, dims.N)
    if pointwise:
        got = phi_eval_batch(C[0], pts[0].v, vecs)
        want = [np.stack([f.eval_batch(tup) for f in constraint_forms(pts[0], C[0])], -1)
                for tup in flat]
    else:
        got = phi_eval_batch(C, v, vecs)
        want = [[[f.eval_batch(tup[i][None])[0] for f in constraint_forms(p, C[i])]
                 for i, p in enumerate(pts)] for tup in flat]
    np.testing.assert_allclose(got, np.reshape(want, lead + (points, C.shape[-3])),
                               rtol=0, atol=1e-12)


def test_custom_rank_deficient_coefficients_rejected():
    base = make_constraint("linear-transport", {"speed": 2.0})
    zero = replace(base, coeffs=np.zeros((1, 2, 1)))
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
    assert converged.shape == (16,) and converged.all()
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
    assert converged.shape == G and converged.all()
    assert np.max(np.abs(spec.values_arrays(x, y, out))) < 1e-12
    assert np.array_equal(out[..., 0], v[..., 0])


def test_newton_without_a_real_root_does_not_converge():
    from nhfields.cli import sample_constraint_point
    from nhfields.lagrangian import make_model

    spec = ConstraintSpec(Dims(1, 1, 1), [lambda x, y, v: v[0][0] * v[0][0] + 1.0])
    x, y, v = _wave_grid_jet(np.random.default_rng(4))
    out, converged = newton_onto_constraint(spec, x, y, v, slice(None), 1e-12, 50)
    assert not converged.any() and np.isfinite(out).all()
    with pytest.raises(NhfieldsError, match="Newton projection onto the constraint set failed"):
        sample_constraint_point(make_model("wave"), spec, np.random.default_rng(4))


def test_newton_on_non_finite_constraint_values_raises():
    x, y, v = _wave_grid_jet(np.random.default_rng(6))
    v[3, 0, 1] = np.inf
    with pytest.raises(EvaluationError, match="non-finite constraint values"):
        newton_onto_constraint(_bent_transport(), x, y, v, slice(0, 1), 1e-12, 50)


def _evaluate_spy(monkeypatch):
    """The batch size of every ``ConstraintSpec.evaluate`` call, in order."""
    sizes = []
    real = ConstraintSpec.evaluate

    def counted(self, x, y, v, directions=None):
        sizes.append(int(np.prod(np.shape(v)[:-2])))
        return real(self, x, y, v, directions)

    monkeypatch.setattr(ConstraintSpec, "evaluate", counted)
    return sizes


@pytest.mark.parametrize("cols", [slice(1, 2), slice(None)])
def test_newton_converges_point_by_point_with_the_bits_of_a_batch_of_one(monkeypatch, cols):
    spec = _bent_transport()
    x, y, v = _wave_grid_jet(np.random.default_rng(3))
    sizes = _evaluate_spy(monkeypatch)
    passes, alone = [], []
    for i in range(len(v)):
        sizes.clear()
        out_i, converged_i = newton_onto_constraint(spec, x[i], y[i], v[i], cols, 1e-12, 50)
        assert converged_i.shape == () and converged_i
        passes.append(len(sizes))
        alone.append(out_i)
    assert len(set(passes)) > 1  # the points need different numbers of steps
    sizes.clear()
    out, converged = newton_onto_constraint(spec, x, y, v, cols, 1e-12, 50)
    assert converged.all()
    assert out.tobytes() == np.stack(alone).tobytes()
    # (max steps + 1) passes, each over the points that have not converged
    assert sizes == [sum(n > j for n in passes) for j in range(max(passes))]


def test_newton_leaves_a_point_without_a_real_root_and_projects_the_rest():
    spec = _bent_transport()
    x, y, v = _wave_grid_jet(np.random.default_rng(3))
    v[5, 0, 0] = -3.0  # 0.5 v1^2 + 2 v1 + 3 = 0 has no real root
    out, converged = newton_onto_constraint(spec, x, y, v, slice(1, 2), 1e-12, 50)
    assert converged.tolist() == [i != 5 for i in range(16)]
    assert np.isfinite(out).all()
    rest = np.arange(16) != 5
    assert np.max(np.abs(spec.values_arrays(x, y, out)[rest])) < 1e-12
    alone, _ = newton_onto_constraint(spec, x[rest], y[rest], v[rest], slice(1, 2), 1e-12, 50)
    assert out[rest].tobytes() == alone.tobytes()


@pytest.mark.parametrize("tol, iters, jointly", [
    (0.0, 2, False),  # stabilization: every point stays live
    (1e-12, 50, True),  # one field: every point steps until all are done
])
def test_newton_steps_every_point_like_the_whole_batch(monkeypatch, tol, iters, jointly):
    from helpers import whole_batch_newton

    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-1.0, 1.0, (4, 4, 4)), rng.uniform(-1.0, 1.0, (4, 4, 3))
    v = np.concatenate([rng.uniform(-0.1, 0.1, (4, 4, 3, 1)),
                        np.eye(3) + rng.uniform(-0.3, 0.3, (4, 4, 3, 3))], axis=-1)
    sizes = _evaluate_spy(monkeypatch)
    out, converged = newton_onto_constraint(spec, x, y, v, slice(None), tol, iters, jointly)
    assert set(sizes) == {16}
    passes = len(sizes)
    sizes.clear()
    want, want_converged = whole_batch_newton(spec, x, y, v, slice(None), tol, iters)
    assert len(sizes) == passes
    assert out.tobytes() == want.tobytes()
    assert converged.tolist() == [[want_converged] * 4] * 4
    if jointly:  # on their own, the points would stop at different steps
        sizes.clear()
        each, _ = newton_onto_constraint(spec, x, y, v, slice(None), tol, iters)
        assert len(set(sizes)) > 1 and each.tobytes() != out.tobytes()


# ---------------------------------------------------------------------------
# one pass for phi and dphi


def _split_jet(z, dims):
    """Flat jet coordinates (..., N) as the arrays (x, y, v)."""
    return split_blocks(z, dims.m, dims.nx)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["linear-transport", "incompressibility", "bent"])
def test_evaluate_has_the_plain_values_and_central_difference_differentials(name, seed):
    rng = np.random.default_rng(seed)
    if name == "linear-transport":
        spec = make_constraint(name, {"speed": float(rng.uniform(-3.0, 3.0))})
    elif name == "incompressibility":
        spec = make_constraint(name)
    else:
        spec = _bent_transport()
    dims = spec.dims
    z = rng.uniform(-1.0, 1.0, (7, dims.N))
    phi, dphi = spec.evaluate(*_split_jet(z, dims))
    assert phi.shape == (7, dims.k) and dphi.shape == (7, dims.k, dims.N)
    plain = spec.values_arrays(*_split_jet(z, dims))
    assert np.array_equal(phi.view(np.int64), plain.view(np.int64))
    h = 1e-6
    for i in range(dims.N):
        step = h * np.eye(dims.N)[i]
        fd = (spec.values_arrays(*_split_jet(z + step, dims))
              - spec.values_arrays(*_split_jet(z - step, dims))) / (2 * h)
        np.testing.assert_allclose(dphi[..., i], fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", ["linear-transport", "incompressibility", "bent"])
def test_evaluate_in_some_directions_has_the_bits_of_their_columns(name):
    """Seeding only some jet inputs gives phi and, for each seeded input in
    the order given, its column of the full differential, bit for bit."""
    spec = _bent_transport() if name == "bent" else make_constraint(name)
    dims = spec.dims
    jet = _split_jet(np.random.default_rng(3).uniform(-1.0, 1.0, (7, dims.N)), dims)
    phi, dphi = spec.evaluate(*jet)
    v_block = [dims.iv(a, mu) for a in range(dims.m) for mu in range(dims.nx)]
    for directions in (v_block, [dims.iv(0, 0)], [dims.N - 1, 0, dims.iy(0)], []):
        sub_phi, sub = spec.evaluate(*jet, directions)
        assert sub_phi.tobytes() == phi.tobytes()
        assert sub.shape == (7, dims.k, len(directions))
        assert sub.tobytes() == dphi[..., directions].tobytes()


@pytest.mark.parametrize("batch", [1, 4, 512])
@pytest.mark.parametrize("name", ["linear-transport", "incompressibility"])
def test_evaluate_returns_c_contiguous_rows_with_the_dense_bits(name, batch):
    """The rows are C-contiguous, in every direction set, and each row has
    the bits of the dense first-order reference pass, up to the sign of an
    exact zero; entries off a phi's support are +0.0."""
    spec = make_constraint(name)
    dims = spec.dims
    jet = _split_jet(np.random.default_rng(batch).uniform(-1.0, 1.0, (batch, dims.N)), dims)
    ref = np.stack([f(*seed_inputs(DenseDual, *jet, dims)).grad for f in spec.funcs], axis=-2)
    for directions in (None, [dims.iv(a, mu) for a in range(dims.m) for mu in range(dims.nx)],
                       [dims.N - 1, 0]):
        phi, dphi = spec.evaluate(*jet, directions)
        cols = ref if directions is None else ref[..., directions]
        assert dphi.flags.c_contiguous and phi.flags.c_contiguous
        assert dphi.shape == (batch, dims.k, cols.shape[-1])
        assert same_bits_up_to_zero_sign(dphi, cols)
        assert not np.signbit(dphi[dphi == 0]).any()


def test_a_fluid_constraint_pass_peaks_at_its_outputs_plus_a_bounded_margin():
    # a 16^3 grid: phi and the rows take 0.62 MiB, and each temporary of the
    # pass carries only its own support, not all 19 directions
    spec = make_constraint("incompressibility")
    dims = spec.dims
    B = 16**3
    jet = _split_jet(np.random.default_rng(4).uniform(-1.0, 1.0, (16, 16, 16, dims.N)), dims)
    outputs = 8 * B * dims.k * (1 + dims.N)
    assert traced_peak(lambda: spec.evaluate(*jet)) < outputs + 3 * 2**20


@pytest.mark.parametrize("cols, moved", [(slice(0, 1), [(0, 0)]),
                                         (slice(None), [(0, 0), (0, 1)])])
def test_newton_differentiates_only_in_the_moved_columns(monkeypatch, cols, moved):
    spec = _bent_transport()
    seen = []
    real = ConstraintSpec.evaluate

    def spy(self, x, y, v, directions=None):
        seen.append(directions)
        return real(self, x, y, v, directions)

    monkeypatch.setattr(ConstraintSpec, "evaluate", spy)
    x, y, v = _wave_grid_jet(np.random.default_rng(2))
    newton_onto_constraint(spec, x, y, v, cols, 1e-12, 50)
    assert seen and all(d == [spec.dims.iv(a, mu) for a, mu in moved] for d in seen)


def test_evaluate_of_a_constant_constraint_has_the_batch_shape_and_no_differential():
    spec = ConstraintSpec(Dims(1, 1, 1), [lambda x, y, v: 0.25])
    x, y, v = _wave_grid_jet(np.random.default_rng(5))
    phi, dphi = spec.evaluate(x, y, v)
    assert phi.shape == (16, 1) and np.all(phi == 0.25)
    assert dphi.shape == (16, 1, spec.dims.N) and not dphi.any()
    assert spec.evaluate(x, y, v, [2])[1].shape == (16, 1, 1)


def test_newton_makes_one_evaluate_call_per_iteration(monkeypatch):
    counts = {"evaluate": 0, "values": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ConstraintSpec, "evaluate", spy("evaluate", ConstraintSpec.evaluate))
    monkeypatch.setattr(ConstraintSpec, "values_arrays",
                        spy("values", ConstraintSpec.values_arrays))
    x, y, v = _wave_grid_jet(np.random.default_rng(3))
    _, converged = newton_onto_constraint(_bent_transport(), x, y, v, slice(None), 0.0, 3)
    assert not converged.any()
    assert counts == {"evaluate": 3, "values": 0}
