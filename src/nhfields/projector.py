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

from .constraint import ConstraintSpec, constraint_forms
from .exceptions import (
    CompatibilityError,
    InternalConsistencyError,
    RegularityError,
)
from .exterior import TangentVector
from .jet import Dims, JetPoint
from .lagrangian import DerivativeBundle, hessian_flat, omega_form


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

    def vector(self, alpha: int) -> TangentVector:
        m, nx = self.zeta.shape[1:]
        return TangentVector(np.zeros(nx), np.zeros(m), self.zeta[alpha])

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
    return np.swapaxes(sol, -1, -2).reshape(coeffs.shape[:-3] + (k, m, nx))


def solve_zeta(bundle: DerivativeBundle, coeffs: np.ndarray) -> ZetaBasis:
    """Constraint distribution basis at one point; ``zeta_residual`` checks
    its defining form identity."""
    return ZetaBasis(solve_zeta_flat(hessian_flat(bundle), coeffs))


def zeta_residual(bundle: DerivativeBundle, coeffs: np.ndarray, zb: ZetaBasis,
                  p: JetPoint, rng=None, tuples: int = 20) -> float:
    """max |(i_{zeta_alpha} Omega_L + Phi_alpha)(random (n+1)-tuple)|."""
    rng = np.random.default_rng(0) if rng is None else rng
    m, nx = p.v.shape
    dims = Dims(nx - 1, m)
    omega = omega_form(bundle, p)
    phis = constraint_forms(p, coeffs)
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx, dims.N))
    worst = 0.0
    for alpha in range(zb.k):
        contracted = omega.contract(zb.vector(alpha))
        vals = contracted.eval_batch(vecs) + phis[alpha].eval_batch(vecs)
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def compatibility_matrix(zeta: np.ndarray, dphidv: np.ndarray,
                         tol: float = 1e-10) -> dict:
    """mmat[alpha][beta] = zeta_alpha(phi_beta) and the invertibility verdict.

    Batched: zeta and dphidv are (..., k, m, n+1).  The tolerance is
    scale-relative: the smallest singular value is compared against tol
    times the natural entry scale max ||zeta_alpha|| max ||dphi_beta||.
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
    compatible = smin > tol * np.maximum(scale, 1e-300)
    return {"mmat": mmat, "det": np.linalg.det(mmat), "compatible": compatible}


def multiplier_matrix(zeta: np.ndarray, dphidv: np.ndarray) -> np.ndarray:
    """Lam = inv(mmat)^T (batched) at points that pass the compatibility
    test; raises CompatibilityError naming the first point that fails."""
    comp = compatibility_matrix(zeta, dphidv)
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
    dphidv = dphi[..., nx + m :].reshape(dphi.shape[:-1] + (m, nx))
    dphiH = (
        dphi[..., :L]
        + np.einsum("...kb,...bu->...ku", dphi[..., nx : nx + m], Gamma)
        + np.einsum("...kbn,...bun->...ku", dphidv, Gamma2)
    )
    lam = np.einsum("...kl,...lu->...ku", Lam, dphiH)
    return Gamma2 - np.einsum("...ku,...kan->...aun", lam, zeta), lam


def build_projectors(zb: ZetaBasis, spec: ConstraintSpec, p: JetPoint,
                     tol: float = 1e-9) -> ProjectorPair:
    """Nonholonomic projector pair at an on-constraint compatible point.

    Q = zeta_alpha Lam^{alpha beta} dphi_beta with Lam = inv(mmat)^T, fixed
    by Q(zeta_gamma) = zeta_gamma; P = I - Q.  TC is the kernel of the full
    differentials dphi (x-, y- and v-blocks included).  All projector
    invariants are verified before returning.
    """
    spec.require_on_constraint(p)
    Lam = multiplier_matrix(zb.zeta, spec.derivatives(p)[2])
    Z = zb.dense()  # (k, N)
    dphi = spec.full_differentials(p)  # (k, N)
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
        raise InternalConsistencyError(
            f"projector invariant {bad} violated: residual {checks[bad]:.3e}"
        )
    return ProjectorPair(P, Q, Lam, zb.zeta.copy(), dphi)
