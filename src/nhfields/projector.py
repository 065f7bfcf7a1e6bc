"""Constraint distribution, compatibility test, and nonholonomic projectors.

The constraint distribution is spanned by the jet-vertical fields
zeta_alpha solving

    (zeta_alpha)^a_mu  d2L/dv^a_mu dv^b_nu = (C_alpha)^nu_b,

which realizes i_{zeta_alpha} Omega_L = -Phi_alpha.  When the matrix
zeta_alpha(phi_beta) is invertible the tangent space splits as
T C (+) span{zeta}, with projectors P (onto TC) and Q = I - P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraint import ConstraintPoint, jet_block, phi_eval_batch
from .exceptions import (
    CompatibilityError,
    InternalConsistencyError,
    RegularityError,
)
from .jet import JetPoint
from .lagrangian import DerivativeBundle, hessian_flat, omega_eval_batch


@dataclass(frozen=True)
class ZetaBasis:
    """Components (zeta_alpha)^a_mu of the constraint distribution basis.

    The zeta_alpha are vertical over the total space, so only the jet block
    is stored; shape (k, m, n+1).
    """

    zeta: np.ndarray

    @property
    def k(self) -> int:
        return self.zeta.shape[0]

    def dense(self) -> np.ndarray:
        """Rows (k, N) of the zeta vectors in the full layout."""
        k, m, nx = self.zeta.shape
        N = nx + m + m * nx
        rows = np.zeros((k, N))
        rows[:, nx + m :] = self.zeta.reshape(k, -1)
        return rows


@dataclass(frozen=True)
class ProjectorPair:
    """Complementary projectors P (onto TC) and Q (onto the constraint
    distribution), plus the inverse compatibility matrix Lam with the
    convention Q = zeta_alpha Lam^{alpha beta} dphi_beta."""

    P: np.ndarray
    Q: np.ndarray
    Lam: np.ndarray
    zeta: np.ndarray
    dphi: np.ndarray


def solve_zeta_flat(H_flat: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Solve the zeta systems given the flattened Hessian.

    H_flat: (..., mn, mn) in a-major/mu-minor flattening; coeffs (C_alpha)
    as (..., k, n+1, m).  Returns (..., k, m, n+1).  Batched.
    """
    k, nx, m = coeffs.shape[-3:]
    rhs = np.swapaxes(coeffs, -1, -2).reshape(coeffs.shape[:-3] + (k, m * nx))
    try:
        # H symmetric: the row-form equation zeta H = C transposes to H zeta = C
        sol = np.linalg.solve(H_flat, np.swapaxes(rhs, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"Hessian is singular in the zeta solve: {exc}") from exc
    if not np.isfinite(sol).all():
        raise RegularityError("Hessian is singular in the zeta solve: non-finite solution")
    return np.swapaxes(sol, -1, -2).reshape(coeffs.shape[:-3] + (k, m, nx))


def solve_zeta(bundle: DerivativeBundle, coeffs: np.ndarray) -> ZetaBasis:
    """Constraint distribution basis at one point; ``zeta_residual`` checks
    its defining form identity."""
    return ZetaBasis(solve_zeta_flat(hessian_flat(bundle), coeffs))


def zeta_residual(bundle: DerivativeBundle, coeffs: np.ndarray, zb: ZetaBasis,
                  p: JetPoint, rng=None, tuples: int = 20) -> float:
    """max |(i_{zeta_alpha} Omega_L + Phi_alpha)(random (n+1)-tuple)|, with
    i_{zeta_alpha} Omega_L(w) = Omega_L(zeta_alpha, w_1, ..., w_{n+1})."""
    rng = np.random.default_rng(0) if rng is None else rng
    Z = zb.dense()
    k, N = Z.shape
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, p.v.shape[1], N))
    slots = np.empty((k, tuples, vecs.shape[1] + 1, N))
    slots[:, :, 0] = Z[:, None]
    slots[:, :, 1:] = vecs
    vals = omega_eval_batch(bundle, p.v, slots) + phi_eval_batch(coeffs, p.v, vecs).T
    return float(np.max(np.abs(vals), initial=0.0))


def compatibility_matrix(zeta: np.ndarray, dphidv: np.ndarray,
                         tol: float = 1e-10) -> dict:
    """mmat[alpha][beta] = zeta_alpha(phi_beta) and the invertibility verdict.

    Batched: zeta and dphidv are (..., k, m, n+1).  The tolerance is
    scale-relative: the smallest singular value is compared against tol
    times the natural entry scale max ||zeta_alpha|| max ||dphi_beta||.
    ``cond`` is that scale over the smallest singular value (inf when it
    vanishes), the condition number of the matrix relative to its entries.
    """
    k = zeta.shape[-3]
    batch = zeta.shape[:-3]
    mmat = np.einsum("...kav,...lav->...kl", zeta, dphidv)
    scale = (
        np.max(np.linalg.norm(zeta.reshape(batch + (k, -1)), axis=-1), axis=-1)
        * np.max(np.linalg.norm(dphidv.reshape(batch + (k, -1)), axis=-1), axis=-1)
    )
    svals = np.linalg.svd(mmat, compute_uv=False)
    smin = svals[..., -1] if k else np.zeros(batch)
    scale = np.maximum(scale, 1e-300)
    cond = np.divide(scale, smin, out=np.full(batch, np.inf), where=smin > 0)
    return {"mmat": mmat, "det": np.linalg.det(mmat), "compatible": smin > tol * scale,
            "cond": cond}


def multiplier_matrix(comp: dict) -> np.ndarray:
    """Lam = inv(mmat)^T (batched) from a ``compatibility_matrix`` result;
    raises CompatibilityError naming the first point that fails its test."""
    bad = ~comp["compatible"]
    if np.any(bad):
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at grid point {idx}" if bad.ndim else ""
        raise CompatibilityError(
            f"compatibility matrix is singular{where} (det {comp['det'][idx]:.3e}); "
            "the constraint distribution meets TC nontrivially"
        )
    return np.swapaxes(np.linalg.inv(comp["mmat"]), -1, -2)


def project_lifts(Gamma: np.ndarray, Gamma2: np.ndarray, dphi: np.ndarray,
                  Lam: np.ndarray, zeta: np.ndarray):
    """Project a stack of horizontal lifts H_0..H_{L-1} onto TC (batched).

    Gamma (..., m, L) and Gamma2 (..., m, L, n+1) are the coefficients of
    the lifts, dphi (..., k, N) the full differentials, Lam (..., k, k) and
    zeta (..., k, m, n+1) from the constraint distribution.  The multipliers
    lam^alpha_mu = Lam^{alpha beta} dphi_beta(H_mu) fix
    Q(H_mu) = lam^alpha_mu zeta_alpha; the zeta are jet-vertical, so only
    Gamma2 changes.  Returns (Gamma2 - lam zeta, lam (..., k, L)).
    """
    m, L, nx = Gamma2.shape[-3:]
    dphidv = jet_block(dphi, m, nx)
    dphiH = (
        dphi[..., :L]
        + np.einsum("...kb,...bu->...ku", dphi[..., nx : nx + m], Gamma)
        + np.einsum("...kbn,...bun->...ku", dphidv, Gamma2)
    )
    lam = np.einsum("...kl,...lu->...ku", Lam, dphiH)
    return Gamma2 - np.einsum("...ku,...kan->...aun", lam, zeta), lam


def build_projectors(zb: ZetaBasis, cp: ConstraintPoint, tol: float = 1e-9,
                     comp: dict | None = None) -> ProjectorPair:
    """Nonholonomic projector pair at an on-constraint compatible point.

    Q = zeta_alpha Lam^{alpha beta} dphi_beta with Lam = inv(mmat)^T, fixed
    by Q(zeta_gamma) = zeta_gamma; P = I - Q.  TC is the kernel of the full
    differentials dphi (x-, y- and v-blocks included).  ``comp`` is the
    ``compatibility_matrix`` verdict at the point, computed at its default
    tolerance when not given.  All projector invariants are verified before
    returning.  A violated invariant raises CompatibilityError when the
    compatibility matrix is too ill-conditioned for ``tol`` (its ``cond``
    times machine epsilon above ``tol``), and InternalConsistencyError
    otherwise.
    """
    if comp is None:
        comp = compatibility_matrix(zb.zeta, cp.dphidv)
    Lam = multiplier_matrix(comp)
    Z = zb.dense()  # (k, N)
    dphi = cp.dphi  # (k, N)
    Q = Z.T @ Lam @ dphi
    N = Q.shape[0]
    P = np.eye(N) - Q
    scale = max(1.0, float(np.linalg.norm(Q, 2)))
    checks = {
        "P^2-P": np.linalg.norm(P @ P - P, 2),
        "Q^2-Q": np.linalg.norm(Q @ Q - Q, 2),
        "PQ": np.linalg.norm(P @ Q, 2),
        "dphi.P": np.linalg.norm(dphi @ P, 2),
        "Q.zeta-zeta": np.linalg.norm(Q @ Z.T - Z.T, 2),
    }
    worst = max(checks.values())
    if worst > tol * scale:
        bad = max(checks, key=checks.get)
        msg = f"projector invariant {bad} violated: residual {checks[bad]:.3e}"
        cond = float(comp["cond"])
        if cond * np.finfo(float).eps > tol:
            raise CompatibilityError(
                f"{msg}; the compatibility matrix is ill-conditioned "
                f"(condition number {cond:.3e} relative to its scale)")
        raise InternalConsistencyError(msg)
    return ProjectorPair(P, Q, Lam, zb.zeta.copy(), dphi)
