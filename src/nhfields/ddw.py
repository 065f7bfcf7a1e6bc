"""Free and constrained De Donder-Weyl solvers and field-equation residuals.

A connection h = dx^mu (x) H_mu solves the free problem when
i_h Omega_L = n Omega_L; in coordinates, with the semi-holonomic choice
Gamma^a_mu = v^a_mu, the second-order coefficients satisfy

    Gamma^b_{tau nu} d2L/dv^b_tau dv^a_nu
        = dL/dy^a - d2L/dx^tau dv^a_tau - v^b_tau d2L/dy^b dv^a_tau,

an underdetermined linear system (m equations for the m(n+1)^2 unknowns)
resolved by minimum norm or by pinning the spatial-first-index block.  The
constrained problem adds multiplier columns lambda^alpha_tau (C_alpha)^tau_a
and the tangency equations H_mu(phi_alpha) = 0.  ``solve_ddw`` is the one
solve of every case, batched; the pointwise solvers are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import (
    ConstraintPoint,
    ConstraintSpec,
    chetaev_coefficients,
    jet_block,
    phi_eval_batch,
)
from .exceptions import DdwSolveError, DimensionMismatchError, InvalidArgumentError
from .exterior import vector_rows
from .jet import ConnectionCoeffs, Jet2Point
from .lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    derivative_bundle,
    omega_eval_batch,
)
from .projector import ProjectorPair, project_lifts

_SOLVE_TOL = 1e-9


@dataclass(frozen=True)
class DdwSolution:
    """Connection coefficients with the multipliers lambda^alpha_mu (k, n+1)
    of the constrained problem (k = 0 for the free one); ``nh_ddw_residual``
    checks them."""

    coeffs: ConnectionCoeffs
    multipliers: np.ndarray


def _connection_matrix(coeffs: ConnectionCoeffs) -> np.ndarray:
    """The horizontal projector as an (N, N) matrix: columns over x map to
    the horizontal lifts, all other columns vanish."""
    m, nx = coeffs.Gamma.shape
    N = nx + m + m * nx
    h = np.zeros((N, N))
    h[:, :nx] = vector_rows([coeffs.horizontal_lift(mu) for mu in range(nx)], N).T
    return h


def free_ddw_rhs(bundle: DerivativeBundle, v: np.ndarray) -> np.ndarray:
    """Right side R_a of the coordinate equations (batched)."""
    return (
        bundle.dLdy
        - np.einsum("...tat->...a", bundle.d2Ldxdv)
        - np.einsum("...bt,...bat->...a", v, bundle.d2Ldydv)
    )


def solve_ddw(bundle: DerivativeBundle, v: np.ndarray, spatial: np.ndarray | None = None,
              dphi: np.ndarray | None = None, coeffs: np.ndarray | None = None):
    """The De Donder-Weyl system, batched over the leading axes of v (..., m, n+1).

    The unknowns are the block Gamma^a_{mu nu} for mu < L: L = n+1, or L = 1
    with the spatial-first-index block Gamma^a_{i nu} pinned to ``spatial``
    (..., m, n, n+1).  Given the constraint data dphi (..., k, N) and
    coeffs (..., k, n+1, m), the m form equations gain the multiplier
    columns lambda^alpha_tau (C_alpha)^tau_a and are bordered by the
    tangency equations H_mu(phi_alpha) = 0 for mu < L; the spatial rows of
    a pinned block are fixed by the pinned data and generically not
    satisfiable exactly (``nh_ddw_residual`` still reports them).  The
    minimum-norm (pseudo-inverse) solution must solve the system at every
    point (``_check_solution``).  Returns the solved block (..., m, L, n+1)
    and the multipliers lambda^alpha_mu (..., k, n+1).
    """
    m, nx = v.shape[-2:]
    batch = v.shape[:-2]
    H = bundle.H
    b = free_ddw_rhs(bundle, v)
    L = nx
    if spatial is not None:
        spatial = np.asarray(spatial, dtype=float)
        if spatial.shape != batch + (m, nx - 1, nx):
            raise DimensionMismatchError(
                f"spatial block shape {spatial.shape}, expected {batch + (m, nx - 1, nx)}"
            )
        L = 1
        b = b - np.einsum("...bian,...bin->...a", H[..., :, 1:, :, :], spatial)
    k = 0 if dphi is None else dphi.shape[-2]
    n_gamma = m * L * nx
    # the form equations, Gamma2-part + lambda^alpha_tau C[alpha, tau, a] = R_a,
    # over the tangency equations H_mu(phi_alpha) = 0 for mu < L
    A = np.zeros(batch + (m + k * L, n_gamma + k * nx))
    A[..., :m, :n_gamma] = np.einsum("...btan->...abtn", H[..., :, :L, :, :]).reshape(
        batch + (m, n_gamma))
    if k:
        A[..., :m, n_gamma:] = np.swapaxes(coeffs.reshape(batch + (k * nx, m)), -1, -2)
        # row (alpha, mu): dphi_alpha/dv on the block of mu
        tang, dphidv = np.zeros(batch + (k, L, m, L, nx)), jet_block(dphi, m, nx)
        for mu in range(L):
            tang[..., mu, :, mu, :] = dphidv
        A[..., m:, :n_gamma] = tang.reshape(batch + (k * L, n_gamma))
        rows = -dphi[..., :L] - dphi[..., nx : nx + m] @ v[..., :L]
        b = np.concatenate([b, rows.reshape(batch + (k * L,))], axis=-1)
    sol = np.einsum("...ij,...j->...i", np.linalg.pinv(A), b)
    _check_solution(A, sol, b)
    return (sol[..., :n_gamma].reshape(batch + (m, L, nx)),
            sol[..., n_gamma:].reshape(batch + (k, nx)))


def _solution(bundle, v, spatial, dphi=None, coeffs=None) -> DdwSolution:
    """A batch of one of ``solve_ddw`` as connection coefficients, with the
    pinned block (if any) filled in."""
    block, lam = solve_ddw(bundle, v, spatial, dphi, coeffs)
    if spatial is not None:
        block = np.concatenate([block, spatial], axis=1)
    return DdwSolution(ConnectionCoeffs(v.copy(), block), lam)


def solve_free_ddw(bundle: DerivativeBundle, v: np.ndarray,
                   fixed_spatial: np.ndarray | None = None) -> DdwSolution:
    """Solve the free problem at the point with jet coordinates v, given its
    derivative bundle: the minimum-Frobenius-norm solution over all second
    order coefficients, or over the temporal block Gamma^a_{0 nu} with the
    spatial block pinned to ``fixed_spatial`` (m, n, n+1)."""
    return _solution(bundle, v, fixed_spatial)


def _check_solution(A, sol, rhs):
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
            f"no solution for the De Donder-Weyl system{where}: least-squares residual "
            f"{resid[idx]:.3e}"
        )


def project_connection(free: DdwSolution, pp: ProjectorPair) -> DdwSolution:
    """Apply the nonholonomic projector to a free solution at a point of C.

    All n+1 horizontal lifts go through ``project_lifts``: Q(H_mu) =
    lambda^alpha_mu zeta_alpha gives the multipliers, and
    Gamma'^a_{mu nu} = Gamma^a_{mu nu} - lambda^alpha_mu (zeta_alpha)^a_nu.
    """
    Gamma2, lam = project_lifts(free.coeffs.Gamma, free.coeffs.Gamma2, pp.dphi,
                                pp.Lam, pp.zeta)
    return DdwSolution(ConnectionCoeffs(free.coeffs.Gamma.copy(), Gamma2), lam)


def solve_constrained_ddw(bundle: DerivativeBundle, cp: ConstraintPoint,
                          fixed_spatial: np.ndarray | None = None) -> DdwSolution:
    """Solve directly for (Gamma2, lambda) at a point of the constraint set:
    the m form equations with multiplier columns, bordered by the tangency
    equations H_mu(phi_alpha) = 0 (only mu = 0 with a pinned spatial block,
    see ``solve_ddw``).  k = 0 is the free problem."""
    return _solution(bundle, cp.p.v, fixed_spatial, cp.dphi, cp.coeffs)


def min_check_tuples(k: int, nx: int) -> int:
    """The fewest random tuples ``nh_ddw_residual`` accepts: one more than
    the k(n+1) multipliers it fits, which could absorb any error on that
    many tuples."""
    return k * nx + 1


def nh_ddw_residual(bundle: DerivativeBundle, cp: ConstraintPoint,
                    sol: DdwSolution, rng=None, tuples: int = 50) -> dict:
    """The form-level check of a De Donder-Weyl solution at a point of C.

    Fits multipliers lambda' by least squares so that i_h Omega_L - n
    Omega_L matches lambda'^alpha_mu dx^mu ^ Phi_alpha on random tuples
    (the shape produced by projecting free solutions); reports the best-fit
    form residual, the fitted lambda', and the tangency residual.  With
    k = 0 (``ConstraintPoint.unconstrained``) there is nothing to fit and
    the residual is that of the free equation i_h Omega_L = n Omega_L.
    ``tuples`` must be at least ``min_check_tuples(k, n+1)``.
    """
    p = cp.p
    nx = p.v.shape[1]
    need = min_check_tuples(cp.k, nx)
    if tuples < need:
        raise InvalidArgumentError(
            f"tuples = {tuples} is below {need}, one more than the k(n+1) "
            "fitted multipliers, which could otherwise absorb any error"
        )
    rng = np.random.default_rng(0) if rng is None else rng
    hmat = _connection_matrix(sol.coeffs)
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx + 1, hmat.shape[0]))
    # i_h Omega_L - n Omega_L in one kernel call: copy i of the tuples has
    # h(w_i) in slot i, the last copy is the tuples unchanged
    slots = np.arange(nx + 1)
    copies = np.repeat(vecs[None], nx + 2, axis=0)
    copies[slots, :, slots] = np.swapaxes(vecs @ hmat.T, 0, 1)
    vals = omega_eval_batch(bundle, p.v, copies)
    b = vals[:-1].sum(axis=0) - (nx - 1) * vals[-1]
    # fit columns (dx^mu ^ Phi_alpha)(w), Laplace-expanded along dx^mu:
    # sum_j (-1)^j w_j^mu Phi_alpha(w without w_j)
    keep = np.array([np.delete(slots, j) for j in slots])
    phi = phi_eval_batch(cp.coeffs, p.v, vecs[:, keep])  # (tuples, n+2, k)
    M = np.einsum("j,tju,tja->tau", (-1.0) ** slots, vecs[..., :nx],
                  phi).reshape(tuples, cp.k * nx)
    lam_fit, *_ = np.linalg.lstsq(M, b, rcond=None)
    form_residual = float(np.max(np.abs(b - M @ lam_fit), initial=0.0))
    out = {
        "form_residual": form_residual,
        # dphi_alpha(H_mu) over the horizontal lifts, the x-columns of hmat
        "tangency_residual": float(np.max(np.abs(cp.dphi @ hmat[:, :nx]),
                                          initial=0.0)),
        "lam_fit": lam_fit.reshape(cp.k, nx),
    }
    # multipliers are determined only modulo the kernel of the wedge map
    # lambda -> lambda dx^Phi (nontrivial already for n = 1), so the match
    # against the solution's own multipliers is reported at form level
    if sol.multipliers.size == lam_fit.size:
        out["lam_gap"] = float(
            np.max(np.abs(M @ (sol.multipliers.reshape(-1) - lam_fit)),
                   initial=0.0)
        )
    return out


def el_residual(model: LagrangianModel, q: Jet2Point) -> np.ndarray:
    """Euler-Lagrange residual E_a = d/dx^mu (dL/dv^a_mu) - dL/dy^a.

    Oriented so that the wave Lagrangian (v_0^2 - v_1^2)/2 gives
    E = y_tt - y_xx; total derivatives expand through (x, y(x), v(x)), so
    E is w . H minus the free right side ``free_ddw_rhs``.
    """
    bundle = derivative_bundle(model, q.point)
    return np.einsum("bnt,bnat->a", q.w, bundle.H) - free_ddw_rhs(bundle, q.point.v)


def nh_field_residual(model: LagrangianModel, spec: ConstraintSpec,
                      q: Jet2Point) -> dict:
    """Fit multipliers for the nonholonomic field equations at second-order
    jet data and report the unexplained residual and constraint values."""
    E = el_residual(model, q)
    C = chetaev_coefficients(spec, q.point)  # (k, nx, m)
    Cmat = C.reshape(spec.k * spec.dims.nx, spec.dims.m).T  # (m, k(n+1))
    lam_flat, *_ = np.linalg.lstsq(Cmat, E, rcond=None)
    return {
        "lam_fit": lam_flat.reshape(spec.k, spec.dims.nx),
        "residual": E - Cmat @ lam_flat,
        "constraint_vals": spec.values(q.point),
    }
