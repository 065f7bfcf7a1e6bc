"""Free and constrained De Donder-Weyl solvers and field-equation residuals.

A connection h = dx^mu (x) H_mu solves the free problem when
i_h Omega_L = n Omega_L; in coordinates, with the semi-holonomic choice
Gamma^a_mu = v^a_mu, the second-order coefficients satisfy

    Gamma^b_{tau nu} d2L/dv^b_tau dv^a_nu
        = dL/dy^a - d2L/dx^tau dv^a_tau - v^b_tau d2L/dy^b dv^a_tau,

an underdetermined linear system (m equations for the m(n+1)^2 unknowns)
resolved by minimum norm or by pinning the spatial-first-index block.  The
constrained problem adds multiplier columns lambda^alpha_tau (C_alpha)^tau_a
and the tangency equations H_mu(phi_alpha) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import ConstraintSpec, chetaev_coefficients, constraint_forms
from .exceptions import DdwSolveError, DimensionMismatchError
from .exterior import Form
from .jet import ConnectionCoeffs, Dims, Jet2Point, JetPoint
from .lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    derivative_bundle,
    omega_form,
)
from .projector import ProjectorPair, ZetaBasis, project_lifts

_SOLVE_TOL = 1e-9


@dataclass(frozen=True)
class MultiplierField:
    """Multipliers lambda^alpha_mu of the constrained problem, shape (k, n+1)."""

    lam: np.ndarray

    @staticmethod
    def zeros(k: int, nx: int) -> "MultiplierField":
        return MultiplierField(np.zeros((k, nx)))


@dataclass(frozen=True)
class DdwSolution:
    """Connection coefficients with multipliers and verification residuals.

    residuals keys: ddw_form (form identity on random tuples), tangency
    (max |H_mu(phi_alpha)|, 0 for the free problem), semiholonomic (0 by
    construction since Gamma is set to the jet coordinates).
    """

    coeffs: ConnectionCoeffs
    multipliers: MultiplierField
    residuals: dict


def _connection_matrix(coeffs: ConnectionCoeffs) -> np.ndarray:
    """The horizontal projector as an (N, N) matrix: columns over x map to
    the horizontal lifts, all other columns vanish."""
    m, nx = coeffs.Gamma.shape
    N = nx + m + m * nx
    h = np.zeros((N, N))
    for mu in range(nx):
        h[:, mu] = coeffs.horizontal_lift(mu).components
    return h


def eval_ih_form(form: Form, hmat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """(i_h form)(tuples) = sum_i form(..., h(v_i), ...) over a batch."""
    total = np.zeros(vecs.shape[0])
    for i in range(vecs.shape[1]):
        vmod = vecs.copy()
        vmod[:, i] = vecs[:, i] @ hmat.T
        total += form.eval_batch(vmod)
    return total


def free_ddw_rhs(bundle: DerivativeBundle, v: np.ndarray) -> np.ndarray:
    """Right side R_a of the coordinate equations (batched)."""
    return (
        bundle.dLdy
        - np.einsum("...tat->...a", bundle.d2Ldxdv)
        - np.einsum("...bt,...bat->...a", v, bundle.d2Ldydv)
    )


def solve_free_ddw(model: LagrangianModel, p: JetPoint,
                   fixed_spatial: np.ndarray | None = None,
                   rng=None, tuples: int = 20) -> DdwSolution:
    """Solve the free problem at p.

    With ``fixed_spatial`` (shape (m, n, n+1)) the spatial-first-index block
    Gamma^a_{i nu} is pinned and only the temporal block Gamma^a_{0 nu} is
    solved; otherwise the minimum-Frobenius-norm solution over all second
    order coefficients is returned.
    """
    bundle = derivative_bundle(model, p)
    coeffs = _solve_ddw_coeffs(bundle, p.v, fixed_spatial)
    resid = _form_residual(bundle, p, coeffs, None, None, rng, tuples)
    return DdwSolution(
        coeffs,
        MultiplierField.zeros(0, p.n + 1),
        {"ddw_form": resid, "tangency": 0.0, "semiholonomic": 0.0},
    )


def _solve_ddw_coeffs(bundle: DerivativeBundle, v: np.ndarray,
                      fixed_spatial: np.ndarray | None) -> ConnectionCoeffs:
    m, nx = v.shape
    if fixed_spatial is None:
        A = np.einsum("btan->abtn", bundle.H).reshape(m, m * nx * nx)
        R = free_ddw_rhs(bundle, v)
        sol, *_ = np.linalg.lstsq(A, R, rcond=None)
        _check_solution(A, sol, R, "full second-order system")
        Gamma2 = sol.reshape(m, nx, nx)
    else:
        fixed_spatial = _pinned_block(fixed_spatial, m, nx)
        temporal = solve_temporal_block(bundle, v, fixed_spatial)
        Gamma2 = np.concatenate([temporal[:, None, :], fixed_spatial], axis=1)
    return ConnectionCoeffs(v.copy(), Gamma2)


def _pinned_block(fixed_spatial, m: int, nx: int) -> np.ndarray:
    fixed_spatial = np.asarray(fixed_spatial, dtype=float)
    if fixed_spatial.shape != (m, nx - 1, nx):
        raise DimensionMismatchError(
            f"fixed_spatial shape {fixed_spatial.shape}, expected {(m, nx - 1, nx)}"
        )
    return fixed_spatial


def solve_temporal_block(bundle: DerivativeBundle, v: np.ndarray,
                         spatial: np.ndarray) -> np.ndarray:
    """Temporal block Gamma^a_{0 nu} of the free equations, batched.

    With the spatial-first-index block Gamma^a_{i nu} pinned to ``spatial``
    (..., m, n, n+1), the m form equations at each point are solved for the
    temporal block (..., m, n+1) by the minimum-norm (pseudo-inverse)
    solution, which must solve them (``_check_solution``).
    """
    m, nx = v.shape[-2:]
    batch = v.shape[:-2]
    H = bundle.H
    A0 = np.swapaxes(H[..., :, 0, :, :], -3, -2).reshape(batch + (m, m * nx))
    Rp = free_ddw_rhs(bundle, v) - np.einsum(
        "...bian,...bin->...a", H[..., :, 1:, :, :], spatial
    )
    sol = np.einsum("...ij,...j->...i", np.linalg.pinv(A0), Rp)
    _check_solution(A0, sol, Rp, "temporal block")
    return sol.reshape(batch + (m, nx))


def _check_solution(A, sol, rhs, label):
    """At every batch point the residual of A sol = rhs must stay below
    _SOLVE_TOL * max(1, max|rhs|)."""
    resid = np.max(np.abs(np.einsum("...ij,...j->...i", A, sol) - rhs),
                   axis=-1, initial=0.0)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=-1, initial=0.0))
    bad = resid > _SOLVE_TOL * scale
    if np.any(bad):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at grid point {idx}" if bad.ndim else ""
        raise DdwSolveError(
            f"no solution for the {label}{where}: least-squares residual "
            f"{resid[idx]:.3e}"
        )


def _form_residual(bundle, p, coeffs, lam, phi_forms, rng, tuples):
    """max over random tuples of |(i_h Omega - n Omega - lam dx^Phi)(tuple)|."""
    rng = np.random.default_rng(0) if rng is None else rng
    m, nx = p.v.shape
    dims = Dims(nx - 1, m)
    omega = omega_form(bundle, p)
    hmat = _connection_matrix(coeffs)
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx + 1, dims.N))
    vals = eval_ih_form(omega, hmat, vecs) - (nx - 1) * omega.eval_batch(vecs)
    if lam is not None:
        for alpha, phi in enumerate(phi_forms):
            for mu in range(nx):
                if lam[alpha, mu] != 0.0:
                    wedge = phi.wedge_front(dims.ix(mu))
                    vals -= lam[alpha, mu] * wedge.eval_batch(vecs)
    return float(np.max(np.abs(vals), initial=0.0))


def project_connection(free: DdwSolution, pp: ProjectorPair, zb: ZetaBasis,
                       p: JetPoint, bundle: DerivativeBundle | None = None,
                       coeffs: np.ndarray | None = None,
                       rng=None, tuples: int = 20) -> DdwSolution:
    """Apply the nonholonomic projector to a free solution at p in C.

    All n+1 horizontal lifts go through ``project_lifts``: Q(H_mu) =
    lambda^alpha_mu zeta_alpha gives the multipliers, and
    Gamma'^a_{mu nu} = Gamma^a_{mu nu} - lambda^alpha_mu (zeta_alpha)^a_nu.
    When the derivative bundle and constraint coefficients are supplied, the
    constrained form identity is evaluated and reported in the residuals.
    """
    Gamma2, lam = project_lifts(free.coeffs.Gamma, free.coeffs.Gamma2, pp.dphi,
                                pp.Lam, zb.zeta)
    projected = ConnectionCoeffs(free.coeffs.Gamma.copy(), Gamma2)
    residuals = {"tangency": _tangency(projected, pp.dphi), "semiholonomic": 0.0,
                 "ddw_form": np.nan}
    if bundle is not None and coeffs is not None:
        residuals["ddw_form"] = _form_residual(bundle, p, projected, lam,
                                               constraint_forms(p, coeffs),
                                               rng, tuples)
    return DdwSolution(projected, MultiplierField(lam), residuals)


def _tangency(coeffs: ConnectionCoeffs, dphi: np.ndarray) -> float:
    """max |dphi_alpha(H_mu)| over the horizontal lifts of the connection."""
    nx = coeffs.Gamma.shape[1]
    Hstack = np.stack([coeffs.horizontal_lift(mu).components for mu in range(nx)])
    return float(np.max(np.abs(dphi @ Hstack.T), initial=0.0))


def solve_constrained_ddw(model: LagrangianModel, spec: ConstraintSpec,
                          p: JetPoint, fixed_spatial: np.ndarray | None = None,
                          rng=None, tuples: int = 20) -> DdwSolution:
    """Solve directly for (Gamma2, lambda) at an on-constraint point.

    Imposes the m form equations plus the tangency equations
    H_mu(phi_alpha) = 0; with a pinned spatial block only the temporal
    (mu = 0) tangency rows are imposed, since the spatial rows are fixed by
    the pinned data and are generically not satisfiable exactly (they are
    still reported through the returned tangency residual).  k = 0 reduces
    to the free problem.
    """
    if spec.k == 0:
        return solve_free_ddw(model, p, fixed_spatial, rng=rng, tuples=tuples)
    spec.require_on_constraint(p)
    bundle = derivative_bundle(model, p)
    m, nx = p.v.shape
    k = spec.k
    H = bundle.H
    R = free_ddw_rhs(bundle, p.v)
    C = chetaev_coefficients(spec, p)  # (k, nx, m)
    dphidx, dphidy, dphidv = spec.derivatives(p)

    if fixed_spatial is None:
        n_gamma = m * nx * nx
        A_ddw = np.einsum("btan->abtn", H).reshape(m, n_gamma)
        tang_mus = range(nx)

        def gamma_tang_row(alpha, mu):
            row = np.zeros((m, nx, nx))
            row[:, mu, :] = dphidv[alpha]
            return row.reshape(n_gamma)

        rhs_extra = np.zeros(m)
        assemble_gamma2 = lambda g: g.reshape(m, nx, nx)
    else:
        fixed_spatial = _pinned_block(fixed_spatial, m, nx)
        n_gamma = m * nx
        A_ddw = np.einsum("ban->abn", H[:, 0]).reshape(m, n_gamma)
        rhs_extra = np.einsum("bian,bin->a", H[:, 1:], fixed_spatial)
        tang_mus = (0,)

        def gamma_tang_row(alpha, mu):
            row = np.zeros((m, nx))
            row[:, :] = dphidv[alpha]
            return row.reshape(n_gamma)

        assemble_gamma2 = lambda g: np.concatenate(
            [g.reshape(m, 1, nx), fixed_spatial], axis=1
        )

    n_lam = k * nx
    rows = []
    rhs = []
    # form equations: Gamma2-part + lambda^alpha_tau C[alpha, tau, a] = R_a
    for a in range(m):
        lam_row = np.zeros((k, nx))
        lam_row[:, :] = C[:, :, a]
        rows.append(np.concatenate([A_ddw[a], lam_row.reshape(n_lam)]))
        rhs.append(R[a] - rhs_extra[a])
    # tangency equations
    for alpha in range(k):
        for mu in tang_mus:
            rows.append(np.concatenate([gamma_tang_row(alpha, mu), np.zeros(n_lam)]))
            rhs.append(-dphidx[alpha, mu] - float(p.v[:, mu] @ dphidy[alpha]))
    A = np.asarray(rows)
    b = np.asarray(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    _check_solution(A, sol, b, "constrained system")
    Gamma2 = assemble_gamma2(sol[:n_gamma])
    lam = sol[n_gamma:].reshape(k, nx)
    coeffs_conn = ConnectionCoeffs(p.v.copy(), Gamma2)

    form_res = _form_residual(bundle, p, coeffs_conn, lam, constraint_forms(p, C),
                              rng, tuples)
    return DdwSolution(coeffs_conn, MultiplierField(lam),
                       {"ddw_form": form_res,
                        "tangency": _tangency(coeffs_conn, spec.full_differentials(p)),
                        "semiholonomic": 0.0})


def nh_ddw_residual(model: LagrangianModel, spec: ConstraintSpec,
                    sol: DdwSolution, p: JetPoint,
                    rng=None, tuples: int = 50) -> dict:
    """Membership test for the constrained form equation at p in C.

    Fits multipliers lambda' by least squares so that i_h Omega_L - n
    Omega_L matches lambda'^alpha_mu dx^mu ^ Phi_alpha on random tuples
    (the shape produced by projecting free solutions); reports the best-fit
    form residual, the fitted lambda', and the tangency residual.
    """
    spec.require_on_constraint(p)
    rng = np.random.default_rng(0) if rng is None else rng
    bundle = derivative_bundle(model, p)
    m, nx = p.v.shape
    dims = Dims(nx - 1, m, spec.k)
    omega = omega_form(bundle, p)
    hmat = _connection_matrix(sol.coeffs)
    C = chetaev_coefficients(spec, p)
    phis = constraint_forms(p, C)
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx + 1, dims.N))
    b = eval_ih_form(omega, hmat, vecs) - (nx - 1) * omega.eval_batch(vecs)
    cols = []
    for alpha in range(spec.k):
        for mu in range(nx):
            cols.append(phis[alpha].wedge_front(dims.ix(mu)).eval_batch(vecs))
    M = np.column_stack(cols) if cols else np.zeros((tuples, 0))
    lam_fit, *_ = np.linalg.lstsq(M, b, rcond=None)
    form_residual = float(np.max(np.abs(b - M @ lam_fit), initial=0.0))
    out = {
        "form_residual": form_residual,
        "tangency_residual": _tangency(sol.coeffs, spec.full_differentials(p)),
        "lam_fit": MultiplierField(lam_fit.reshape(spec.k, nx)),
    }
    # multipliers are determined only modulo the kernel of the wedge map
    # lambda -> lambda dx^Phi (nontrivial already for n = 1), so the match
    # against the solution's own multipliers is reported at form level
    if sol.multipliers.lam.size == lam_fit.size:
        out["lam_gap"] = float(
            np.max(np.abs(M @ (sol.multipliers.lam.reshape(-1) - lam_fit)),
                   initial=0.0)
        )
    return out


def el_residual(model: LagrangianModel, q: Jet2Point) -> np.ndarray:
    """Euler-Lagrange residual E_a = d/dx^mu (dL/dv^a_mu) - dL/dy^a.

    Oriented so that the wave Lagrangian (v_0^2 - v_1^2)/2 gives
    E = y_tt - y_xx; total derivatives expand through (x, y(x), v(x)) using
    the derivative bundle and the second derivatives w.
    """
    p = q.point
    bundle = derivative_bundle(model, p)
    total = (
        np.einsum("tat->a", bundle.d2Ldxdv)
        + np.einsum("bt,bat->a", p.v, bundle.d2Ldydv)
        + np.einsum("bnt,bnat->a", q.w, bundle.H)
    )
    return total - bundle.dLdy


def nh_field_residual(model: LagrangianModel, spec: ConstraintSpec,
                      q: Jet2Point) -> dict:
    """Fit multipliers for the nonholonomic field equations at second-order
    jet data and report the unexplained residual and constraint values."""
    E = el_residual(model, q)
    C = chetaev_coefficients(spec, q.point)  # (k, nx, m)
    Cmat = C.reshape(spec.k * spec.dims.nx, spec.dims.m).T  # (m, k(n+1))
    lam_flat, *_ = np.linalg.lstsq(Cmat, E, rcond=None)
    return {
        "lam_fit": MultiplierField(lam_flat.reshape(spec.k, spec.dims.nx)),
        "residual": E - Cmat @ lam_flat,
        "constraint_vals": spec.values(q.point),
    }
