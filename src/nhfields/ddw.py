"""Free and constrained De Donder-Weyl solvers and field-equation residuals.

A connection h = dx^mu (x) H_mu solves the free problem when
i_h Omega_L = n Omega_L; in coordinates, with the semi-holonomic choice
Gamma^a_mu = v^a_mu, the second-order coefficients satisfy

    Gamma^b_{tau nu} d2L/dv^b_nu dv^a_tau
        = dL/dy^a - d2L/dx^tau dv^a_tau - v^b_tau d2L/dy^b dv^a_tau,

an underdetermined linear system (m equations for the m(n+1)^2 unknowns)
resolved by minimum norm or by pinning the spatial-first-index block.  The
constrained problem adds multiplier columns lambda^alpha_tau (C_alpha)^tau_a
and the tangency equations H_mu(phi_alpha) = 0.  ``solve_ddw`` is the one
solve of every case, batched; the pointwise solvers are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import (
    ConstraintPoint,
    ConstraintSpec,
    coefficient_arrays,
    jet_block,
    phi_from_pairings,
)
from .exceptions import (DdwSolveError, DimensionMismatchError, InvalidArgumentError, errors_at,
                         raise_first)
from .exterior import vector_rows
from .jet import ConnectionCoeffs, Jet2Point, deletion_minors, dx_minors, solve_points
from .lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    chunk_points,
    derivative_bundle,
    omega_expansion,
    omega_from_pairings,
    omega_pairings,
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
    """The horizontal projector as (..., N, N) matrices: columns over x map
    to the horizontal lifts, all other columns vanish."""
    m, nx = coeffs.Gamma.shape[-2:]
    N = nx + m + m * nx
    h = np.zeros(coeffs.Gamma.shape[:-2] + (N, N))
    h[..., :nx] = np.swapaxes(
        vector_rows([coeffs.lift_components(mu) for mu in range(nx)], N), -1, -2)
    return h


def free_ddw_rhs(bundle: DerivativeBundle, v: np.ndarray) -> np.ndarray:
    """Right side R_a of the coordinate equations (batched)."""
    return (
        bundle.dLdy
        - np.einsum("...tat->...a", bundle.d2Ldxdv)
        - np.einsum("...bt,...bat->...a", v, bundle.d2Ldydv)
    )


def _pinned_terms(H: np.ndarray, spatial: np.ndarray) -> np.ndarray:
    """The pinned block's part of the right side, H[b, nu, a, i+1]
    spatial[b, i, nu] summed over b, nu and i, batched as spatial
    (..., m, n, n+1).  The optimized contraction copies H, so it runs over
    chunks of the derivative bundle's size (``chunk_points``), whose copy
    is bounded as the bundle's own chunk is; every chunk has the bits of
    one contraction over the whole batch."""
    batch, (m, n, nx) = spatial.shape[:-3], spatial.shape[-3:]
    B, step = math.prod(batch), chunk_points(m * nx)
    H, spatial = H.reshape((B,) + H.shape[-4:]), spatial.reshape((B, m, n, nx))
    out = np.empty((B, m))
    for lo in range(0, B, step):
        out[lo : lo + step] = np.einsum("...bnai,...bin->...a", H[lo : lo + step, ..., 1:],
                                        spatial[lo : lo + step], optimize=True)
    return out.reshape(batch + (m,))


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
    minimum-norm solution x = A^T y, (A A^T) y = b, must solve the system
    at every point, to _SOLVE_TOL * max(1, max|rhs|), else the point is
    solved again by pseudo-inverse.  Returns the solved block
    (..., m, L, n+1), the multipliers lambda^alpha_mu (..., k, n+1) and the
    DdwSolveError of each point where the pseudo-inverse fails too, keyed by
    point index.
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
        b = b - _pinned_terms(H, spatial)
    k = 0 if dphi is None else dphi.shape[-2]
    n_gamma = m * L * nx
    # the form equations, Gamma2-part + lambda^alpha_tau C[alpha, tau, a] = R_a,
    # over the tangency equations H_mu(phi_alpha) = 0 for mu < L
    A = np.zeros(batch + (m + k * L, n_gamma + k * nx))
    A[..., :m, :n_gamma] = np.einsum("...bnat->...abtn", H[..., :L]).reshape(
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
    bound = _SOLVE_TOL * np.maximum(1.0, np.max(np.abs(b), axis=-1, initial=0.0))

    def residual(x):
        return np.max(np.abs(np.einsum("...ij,...j->...i", A, x) - b), axis=-1, initial=0.0)

    # x = A^T y, in the row space of A, has minimum norm if it solves A x = b
    with np.errstate(all="ignore"):  # an overflow sends its point to pinv
        gram = A @ np.swapaxes(A, -1, -2)
        y = solve_points(gram, b[..., None])[0][..., 0]  # NaN where gram is singular
        sol = np.einsum("...ji,...j->...i", A, y)
        resid = residual(sol)
    redo = ~(resid <= bound)  # NaN included
    if redo.any():
        sol[redo] = np.einsum("...ij,...j->...i", np.linalg.pinv(A[redo]), b[redo])
        resid = residual(sol)
    return (sol[..., :n_gamma].reshape(batch + (m, L, nx)),
            sol[..., n_gamma:].reshape(batch + (k, nx)),
            errors_at(resid > bound, lambda idx: DdwSolveError(
                "no solution for the De Donder-Weyl system: least-squares residual "
                f"{resid[idx]:.3e}")))


def _solution(bundle, v, spatial, dphi=None, coeffs=None) -> DdwSolution:
    """A batch of one of ``solve_ddw`` as connection coefficients, with the
    pinned block (if any) filled in."""
    block, lam, errors = solve_ddw(bundle, v, spatial, dphi, coeffs)
    raise_first(errors)
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


def _check_tuples(tuples: int, k: int, nx: int) -> None:
    need = min_check_tuples(k, nx)
    if tuples < need:
        raise InvalidArgumentError(
            f"tuples = {tuples} is below {need}, one more than the k(n+1) "
            "fitted multipliers, which could otherwise absorb any error"
        )


def nh_ddw_residual_batch(bundle: DerivativeBundle, v: np.ndarray, dphi: np.ndarray,
                          coeffs: np.ndarray, sol: DdwSolution, vecs: np.ndarray) -> dict:
    """The form-level check of De Donder-Weyl solutions over a batch of
    points of C, on the tuples vecs (..., tuples, n+2, N) of each point.

    Fits multipliers lambda' by least squares so that i_h Omega_L - n
    Omega_L matches lambda'^alpha_mu dx^mu ^ Phi_alpha on the tuples (the
    shape produced by projecting free solutions); reports the best-fit form
    residual, the fitted lambda' (..., k, n+1), and the tangency residual.
    With k = 0 (``ConstraintPoint.unconstrained``) there is nothing to fit
    and the residual is that of the free equation i_h Omega_L = n Omega_L.
    bundle, v (..., m, n+1), dphi (..., k, N), coeffs (..., k, n+1, m) and
    the solutions ``sol`` share the batch axes; ``tuples`` must be at least
    ``min_check_tuples(k, n+1)``.
    """
    m, nx = v.shape[-2:]
    k = dphi.shape[-2]
    batch = v.shape[:-2]
    tuples = vecs.shape[-3]
    _check_tuples(tuples, k, nx)
    hmat = _connection_matrix(sol.coeffs)
    # i_h Omega_L - n Omega_L from n+3 copies of each tuple: copy i has
    # h(w_i) in slot i, the last copy is the tuple unchanged.  h keeps the
    # dx rows, so the copies share the dx minors of the tuple, and each
    # other column of a copy pairs a vector of the tuple or its image
    minors_n, minors_nx = dx_minors(vecs, nx, nx)[-2:]
    expansion = omega_expansion((minors_n, minors_nx))
    inner = bundle.broadcast(1), v[..., None, :, :]
    base = omega_pairings(*inner, vecs)
    lifted = omega_pairings(*inner, vecs @ np.swapaxes(hmat, -1, -2)[..., None, :, :])
    # copy i, for i = 0..n+1, then the tuple itself
    vals = []
    for i in range(nx + 1):
        copy = [col.copy() for col in base]
        copy[0][..., i, :] = lifted[0][..., i, :]
        for col, lift in zip(copy[1:], lifted[1:]):
            col[..., i] = lift[..., i]
        vals.append(omega_from_pairings(inner[0], copy, expansion))
    vals.append(omega_from_pairings(inner[0], base, expansion))
    b = vals[0]
    for val in vals[1:-1]:  # summed in the order of a reduction over the copies
        b = b + val
    b = b - (nx - 1) * vals[-1]
    theta = base[1]
    del base, lifted, expansion
    slots = np.arange(nx + 1)
    # fit columns (dx^mu ^ Phi_alpha)(w), Laplace-expanded along dx^mu:
    # sum_j (-1)^j w_j^mu Phi_alpha(w without w_j), whose pairings and dx
    # minors are those of the tuple without column j
    keep = np.array([np.delete(slots, j) for j in slots])
    phi = phi_from_pairings(coeffs[..., None, None, :, :, :],
                            np.moveaxis(theta[..., keep], -2, -3),
                            deletion_minors(minors_n, nx + 1, nx - 1))
    M = np.einsum("j,...ju,...ja->...au", (-1.0) ** slots, vecs[..., :nx],
                  phi).reshape(batch + (tuples, k * nx))
    # multipliers are determined only modulo the kernel of the wedge map
    # lambda -> lambda dx^Phi (nontrivial already for n = 1), so the match
    # against the solution's own multipliers is reported at form level
    lam = sol.multipliers.reshape(batch + (math.prod(sol.multipliers.shape[-2:]),))
    gap = lam.shape[-1] == k * nx
    lam_fit = np.zeros(batch + (k * nx,))
    form_residual, lam_gap = np.zeros(batch), np.zeros(batch)
    for idx in np.ndindex(batch):  # lstsq has no batched form
        lam_fit[idx] = np.linalg.lstsq(M[idx], b[idx], rcond=None)[0]
        form_residual[idx] = np.max(np.abs(b[idx] - M[idx] @ lam_fit[idx]), initial=0.0)
        if gap:
            lam_gap[idx] = np.max(np.abs(M[idx] @ (lam[idx] - lam_fit[idx])), initial=0.0)
    out = {
        "form_residual": form_residual,
        # dphi_alpha(H_mu) over the horizontal lifts, the x-columns of hmat
        "tangency_residual": np.max(np.abs(dphi @ hmat[..., :nx]), axis=(-2, -1),
                                    initial=0.0),
        "lam_fit": lam_fit.reshape(batch + (k, nx)),
    }
    if gap:
        out["lam_gap"] = lam_gap
    return out


def nh_ddw_residual(bundle: DerivativeBundle, cp: ConstraintPoint,
                    sol: DdwSolution, rng=None, tuples: int = 50) -> dict:
    """``nh_ddw_residual_batch`` at one point of C, on ``tuples`` random
    tuples drawn from ``rng``."""
    N = cp.dphi.shape[-1]
    nx = cp.p.v.shape[1]
    _check_tuples(tuples, cp.k, nx)
    rng = np.random.default_rng(0) if rng is None else rng
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx + 1, N))
    out = nh_ddw_residual_batch(bundle, cp.p.v, cp.dphi, cp.coeffs, sol, vecs)
    return {key: val if key == "lam_fit" else float(val) for key, val in out.items()}


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
    p, dims = q.point, spec.dims
    phi, dphi = spec.evaluate(p.x, p.y, p.v)
    C = coefficient_arrays(spec, jet_block(dphi, dims.m, dims.nx))
    Cmat = C.reshape(spec.k * dims.nx, dims.m).T  # (m, k(n+1))
    lam_flat, *_ = np.linalg.lstsq(Cmat, E, rcond=None)
    return {
        "lam_fit": lam_flat.reshape(spec.k, dims.nx),
        "residual": E - Cmat @ lam_flat,
        "constraint_vals": phi,
    }
