"""Fluid closed forms, Prop-5.1-style identities, and the torus smoke run."""

import numpy as np
import pytest

from nhfields import autodiff as ad
from nhfields.cauchy import CauchyState, evolve
from nhfields.constraint import chetaev_coefficients, make_constraint
from nhfields.exceptions import CompatibilityError, InvalidArgumentError
from nhfields.fluid import (
    FluidParams,
    fluid_lagrangian,
    fluid_quantities,
    null_lagrangian_residual,
    psi_divergence_residual,
    spatial_hessian_closed,
)
from nhfields.jet import JetPoint
from nhfields.lagrangian import derivative_bundle, hessian_flat, make_model

from helpers import fluid_constraint_point, random_det_one_spatial


def jet_point(v0, vsp):
    v = np.hstack([np.asarray(v0, dtype=float)[:, None], np.asarray(vsp, dtype=float)])
    return JetPoint(np.zeros(4), np.zeros(3), v)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        FluidParams(rho=0.0)
    with pytest.raises(InvalidArgumentError):
        FluidParams(beta=0.0)
    FluidParams(beta=0.0, mu=0.5)  # regularized: fine


def test_identity_deformation():
    q = fluid_quantities(FluidParams(), jet_point(np.zeros(3), np.eye(3)))
    assert q["J"] == pytest.approx(1.0)
    assert np.allclose(q["vinv"], np.eye(3))
    assert np.allclose(q["C"], np.eye(3))
    # f = -3 / (rho (3 kappa + 2 beta)) at the identity for this W
    assert q["f"] == pytest.approx(-0.6)


def test_diagonal_volume_preserving():
    q = fluid_quantities(FluidParams(), jet_point(np.zeros(3), np.diag([2.0, 1.0, 0.5])))
    assert q["J"] == pytest.approx(1.0)
    assert np.allclose(q["C"], np.diag([0.5, 1.0, 2.0]))


def test_closed_form_hessian_matches_ad():
    params = FluidParams(kappa=1.3, beta=0.7, mu=0.2)
    model = fluid_lagrangian(params)
    rng = np.random.default_rng(0)
    p = fluid_constraint_point(rng)
    H_ad = derivative_bundle(model, p).H
    H_cl = spatial_hessian_closed(params, p.v[:, 1:])
    # spatial block [a, i+1, b, j+1]
    assert np.abs(H_ad[:, 1:, :, 1:] - H_cl).max() < 1e-10
    # temporal block rho I, mixed blocks zero
    assert np.allclose(H_ad[:, 0, :, 0], params.rho * np.eye(3))
    assert np.abs(H_ad[:, 0, :, 1:]).max() == 0.0


def test_generic_vs_closed_form_agreement_many_points():
    params = FluidParams()
    spec = make_constraint("incompressibility")
    model = fluid_lagrangian(params)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = fluid_constraint_point(rng)
        q = fluid_quantities(params, p, spec=spec)  # internal cross-check at 1e-9
        assert abs(q["J"] - 1.0) < 1e-9
        assert q["f"] != 0.0
        P = q["P"]
        assert np.abs(P @ P - P).max() < 1e-9


def test_singular_spatial_block_rejected():
    vsp = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(InvalidArgumentError):
        fluid_quantities(FluidParams(), jet_point(np.zeros(3), vsp))


def test_multipliers_have_zero_temporal_component():
    """dphi/dv_0 = 0 makes the temporal coefficient column vanish, so the
    minimum-norm field-equation multipliers carry lambda_0 = 0."""
    from nhfields.ddw import nh_field_residual
    from nhfields.jet import Jet2Point

    params = FluidParams()
    model = fluid_lagrangian(params)
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(2)
    p = fluid_constraint_point(rng)
    w = rng.uniform(-0.3, 0.3, (3, 4, 4))
    w = 0.5 * (w + np.swapaxes(w, 1, 2))
    out = nh_field_residual(model, spec, Jet2Point(p, w))
    assert abs(out["lam_fit"].lam[0, 0]) < 1e-12
    # the residual orthogonal to the single coefficient row vanishes
    C = chetaev_coefficients(spec, p)[0]  # (4, 3)
    E_fit = out["lam_fit"].lam[0] @ C
    assert np.abs(out["residual"] - (out["residual"] + E_fit - E_fit)).max() == 0.0


def test_projected_connection_multiplier_shape():
    """Section-adapted free solutions have vanishing spatial-temporal
    coefficients for the fluid's block Hessian, so the connection
    multipliers also carry lambda_0 = 0."""
    from nhfields.ddw import project_connection, solve_free_ddw
    from nhfields.projector import build_projectors, solve_zeta

    params = FluidParams()
    model = fluid_lagrangian(params)
    spec = make_constraint("incompressibility")
    rng = np.random.default_rng(3)
    p = fluid_constraint_point(rng)
    bundle = derivative_bundle(model, p)
    C = chetaev_coefficients(spec, p)
    zb = solve_zeta(bundle, C)
    pp = build_projectors(zb, spec, p)
    free = solve_free_ddw(model, p, fixed_spatial=0.2 * rng.uniform(-1, 1, (3, 3, 4)))
    proj = project_connection(free, pp, zb, p)
    lam = proj.multipliers.lam  # (1, 4)
    assert abs(lam[0, 0]) < 1e-12
    assert np.abs(lam[0, 1:]).max() > 0.0
    assert proj.residuals["tangency"] < 1e-10


def section_linear(A, b=None):
    A = np.asarray(A, dtype=float)
    b = np.zeros(3) if b is None else np.asarray(b, dtype=float)

    def fn(xs):
        out = []
        for a in range(3):
            acc = b[a]
            for i in range(3):
                acc = acc + A[a, i] * xs[i + 1]
            out.append(acc)
        return out

    return fn


def mixing_section(eps, freq):
    def fn(xs):
        t, x1, x2, x3 = xs
        return [
            x1 + eps * ad.sin(freq * x2) * ad.cos(freq * x3),
            x2 + eps * ad.sin(freq * x3) * ad.cos(freq * x1),
            x3 + eps * ad.sin(freq * x1) * ad.cos(freq * x2),
        ]
    return fn


def test_null_lagrangian_linear_section_exact():
    rng = np.random.default_rng(4)
    A = random_det_one_spatial(rng) * 1.4
    resid = null_lagrangian_residual(section_linear(A, [0.2, -0.1, 0.4]), (4, 8, 8, 8))
    assert resid < 1e-10


def test_null_lagrangian_fourth_order_convergence():
    section = mixing_section(0.05, np.pi)
    r16 = null_lagrangian_residual(section, (4, 16, 16, 16))
    r32 = null_lagrangian_residual(section, (4, 32, 32, 32))
    assert r16 < 1e-4
    assert 10.0 < r16 / r32 < 22.0  # 4th order: ~16x per doubling


def test_null_lagrangian_cubic_polynomial_section():
    # cubic y gives quadratic v and quartic cofactors; the 5-point stencil
    # is exact through degree 5, so the truncation error vanishes and the
    # residual sits at roundoff on every grid
    def fn(xs):
        t, x1, x2, x3 = xs
        return [
            x1 + 0.05 * x2 * x2 * x3,
            x2 + 0.05 * x3 * x3 * x1,
            x3 + 0.05 * x1 * x2 * x3,
        ]

    r8 = null_lagrangian_residual(fn, (4, 8, 8, 8), spacings=(0.125,) * 4)
    r16 = null_lagrangian_residual(fn, (4, 16, 16, 16), spacings=(0.0625,) * 4)
    assert r8 < 1e-12 and r16 < 1e-12


def test_psi_divergence_listed_sections():
    identity = section_linear(np.eye(3))
    shear = section_linear(np.array([[1.0, 0.7, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    double = section_linear(np.diag([2.0, 1.0, 1.0]))
    assert psi_divergence_residual(identity, (6, 8, 8, 8)) < 1e-10
    assert psi_divergence_residual(shear, (6, 8, 8, 8)) < 1e-6
    assert psi_divergence_residual(double, (6, 8, 8, 8)) < 1e-6


def test_psi_divergence_smooth_section_converges():
    section = mixing_section(0.05, np.pi)
    r8 = psi_divergence_residual(section, (4, 8, 8, 8))
    r16 = psi_divergence_residual(section, (4, 16, 16, 16))
    assert 10.0 < r8 / r16 < 22.0


def make_smoke_state(N=8, amp=0.01, vel=0.005):
    u = np.arange(N) / N
    U = np.meshgrid(u, u, u, indexing="ij")
    disp = np.zeros((N, N, N, 3))
    disp[..., 0] = amp * np.sin(2 * np.pi * U[1])
    vi = np.broadcast_to(np.eye(3), (N, N, N, 3, 3)).copy()
    vi[..., 0, 1] += amp * 2 * np.pi * np.cos(2 * np.pi * U[1])
    v0 = np.zeros((N, N, N, 3))
    v0[..., 0] = vel * np.sin(2 * np.pi * U[2])
    return CauchyState(0.0, disp, "fulljet", v0=v0, vi=vi, y_offset="identity")


@pytest.mark.slow
def test_torus_smoke_evolution_keeps_constraint():
    model = fluid_lagrangian(FluidParams())
    spec = make_constraint("incompressibility")
    state = make_smoke_state(8)
    res = evolve(model, spec, state, 1e-3, 100, "rk4", drift_tol=1e-4)
    assert res.diagnostics["max_phi"].max() < 1e-5
    assert np.abs(res.diagnostics["eta"] - 1.0).max() < 1e-12
    assert np.isfinite(res.diagnostics["energy"]).all()


def test_torus_smoke_short():
    # 4^3 grid, 5 steps: exercises the full constrained pipeline cheaply
    model = fluid_lagrangian(FluidParams())
    spec = make_constraint("incompressibility")
    state = make_smoke_state(4)
    res = evolve(model, spec, state, 1e-3, 5, "rk4", drift_tol=1e-4)
    assert res.diagnostics["max_phi"].max() < 1e-5
