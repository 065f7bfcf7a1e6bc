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

from .constraint import ConstraintPoint, phi_eval_batch
from .exceptions import (
    CompatibilityError,
    InternalConsistencyError,
    RegularityError,
    errors_at,
    raise_first,
)
from .exterior import join_blocks
from .jet import JetPoint, finite_points, lift_pairings, solve_points
from .lagrangian import DerivativeBundle, hessian_flat, omega_eval_batch


@dataclass(frozen=True)
class ZetaBasis:
    """Components (zeta_alpha)^a_mu of the constraint distribution basis.

    The zeta_alpha are vertical over the total space, so only the jet block
    is stored; shape (k, m, n+1).
    """

    zeta: np.ndarray

    def dense(self) -> np.ndarray:
        """Rows (k, N) of the zeta vectors in the full layout."""
        return dense_rows(self.zeta)


def dense_rows(zeta: np.ndarray) -> np.ndarray:
    """Rows (..., k, N) of jet-vertical vectors (..., k, m, n+1) in the full
    layout."""
    m, nx = zeta.shape[-2:]
    return join_blocks(np.zeros(nx), np.zeros(m), zeta)


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


def solve_zeta_flat(H_flat: np.ndarray, coeffs: np.ndarray):
    """Solve the zeta systems given the flattened Hessian.

    H_flat: (..., mn, mn) in a-major/mu-minor flattening; coeffs (C_alpha)
    as (..., k, n+1, m).  Returns zeta (..., k, m, n+1) and the
    RegularityError of each point without a finite solution, keyed by
    point index.
    """
    k, nx, m = coeffs.shape[-3:]
    batch = coeffs.shape[:-3]
    # H symmetric: the row-form equation zeta H = C transposes to H zeta = C
    rhs = np.swapaxes(np.swapaxes(coeffs, -1, -2).reshape(batch + (k, m * nx)), -1, -2)
    sol, singular = solve_points(H_flat, rhs)
    errors = errors_at(~finite_points(sol, len(batch)), lambda idx: RegularityError(
        "Hessian is singular in the zeta solve: "
        + ("Singular matrix" if singular[idx] else "non-finite solution")))
    return np.swapaxes(sol, -1, -2).reshape(batch + (k, m, nx)), errors


def solve_zeta(bundle: DerivativeBundle, coeffs: np.ndarray) -> ZetaBasis:
    """Constraint distribution basis at one point; ``zeta_residual`` checks
    its defining form identity."""
    zeta, errors = solve_zeta_flat(hessian_flat(bundle), coeffs)
    raise_first(errors)
    return ZetaBasis(zeta)


def zeta_residual_batch(bundle: DerivativeBundle, coeffs: np.ndarray, zeta: np.ndarray,
                        v: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """max |(i_{zeta_alpha} Omega_L + Phi_alpha)(w)| per batch point over its
    tuples vecs (..., tuples, n+1, N), with
    i_{zeta_alpha} Omega_L(w) = Omega_L(zeta_alpha, w_1, ..., w_{n+1});
    bundle, coeffs (..., k, n+1, m), zeta (..., k, m, n+1) and
    v (..., m, n+1) share the batch axes."""
    Z = dense_rows(zeta)  # (..., k, N)
    k, N = Z.shape[-2:]
    tuples, nx = vecs.shape[-3:-1]
    slots = np.empty(Z.shape[:-2] + (k, tuples, nx + 1, N))
    slots[..., 0, :] = Z[..., None, :]
    slots[..., 1:, :] = vecs[..., None, :, :, :]
    vals = (omega_eval_batch(bundle.broadcast(2), v[..., None, None, :, :], slots)
            + np.swapaxes(phi_eval_batch(coeffs[..., None, :, :, :], v[..., None, :, :], vecs),
                          -1, -2))
    return np.max(np.abs(vals), axis=(-2, -1), initial=0.0)


def zeta_residual(bundle: DerivativeBundle, coeffs: np.ndarray, zb: ZetaBasis,
                  p: JetPoint, rng=None, tuples: int = 20) -> float:
    """``zeta_residual_batch`` at one point, on ``tuples`` random tuples."""
    rng = np.random.default_rng(0) if rng is None else rng
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, p.v.shape[1], p.x.size + p.y.size + p.v.size))
    return float(zeta_residual_batch(bundle, coeffs, zb.zeta, p.v, vecs))


def compatibility_matrix(zeta: np.ndarray, dphidv: np.ndarray,
                         tol: float = 1e-10) -> dict:
    """mmat[alpha][beta] = zeta_alpha(phi_beta) and the invertibility verdict.

    Batched: zeta and dphidv are (..., k, m, n+1).  The tolerance is
    scale-relative: the smallest singular value is compared against tol
    times the natural entry scale max ||zeta_alpha|| max ||dphi_beta||, as
    the singular value over the first norm against tol times the second, so
    that no product of scales overflows.  ``cond`` is that scale over the
    smallest singular value (inf when it vanishes), the condition number of
    the matrix relative to its entries.
    """
    k = zeta.shape[-3]
    batch = zeta.shape[:-3]
    mmat = np.einsum("...kav,...lav->...kl", zeta, dphidv)
    zn, dn = (np.max(_norms(a.reshape(batch + (k, -1))), axis=-1) for a in (zeta, dphidv))
    if k == 1:  # the singular value of a 1 x 1 matrix is its magnitude
        smin = np.abs(mmat[..., 0, 0])
    else:
        smin = np.linalg.svd(mmat, compute_uv=False)[..., -1] if k else np.zeros(batch)
    # a nonzero smin has nonzero zeta and dphi rows
    rel = np.divide(smin, zn, out=np.zeros(batch), where=smin > 0)
    with np.errstate(over="ignore"):  # a condition number past the float range is inf
        cond = np.divide(zn, smin, out=np.full(batch, np.inf), where=smin > 0) * dn
    return {"mmat": mmat, "det": np.linalg.det(mmat), "compatible": rel > tol * dn,
            "cond": cond}


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of rows (..., c), taken of the rows scaled by a power
    of two near their largest entry: no square overflows, and a norm whose
    squares would not have overflowed has the bits of ``np.linalg.norm``."""
    exp = np.frexp(np.max(np.abs(rows), axis=-1, keepdims=True))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(rows, -exp), axis=-1), exp[..., 0])


def multiplier_matrix(comp: dict) -> np.ndarray:
    """Lam = inv(mmat)^T (batched) from a ``compatibility_matrix`` result;
    raises the CompatibilityError of the first point that fails its test."""
    raise_first(errors_at(~comp["compatible"], lambda idx: CompatibilityError(
        f"compatibility matrix is singular (det {comp['det'][idx]:.3e}); "
        "the constraint distribution meets TC nontrivially")))
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
    lam = np.einsum("...kl,...lu->...ku", Lam, lift_pairings(dphi, Gamma, Gamma2))
    return Gamma2 - np.einsum("...ku,...kan->...aun", lam, zeta), lam


def projector_pairs(zeta: np.ndarray, dphi: np.ndarray, comp: dict, tol: float = 1e-9):
    """Nonholonomic projector pairs over a batch of on-constraint compatible
    points, from zeta (..., k, m, n+1), the full differentials dphi
    (..., k, N) and their ``compatibility_matrix`` verdict ``comp``.

    Q = zeta_alpha Lam^{alpha beta} dphi_beta with Lam = inv(mmat)^T, fixed
    by Q(zeta_gamma) = zeta_gamma; P = I - Q.  TC is the kernel of the full
    differentials dphi (x-, y- and v-blocks included).  Every projector
    invariant is verified at every point; a violated invariant is a
    CompatibilityError when the compatibility matrix is too ill-conditioned
    for ``tol`` (its ``cond`` times machine epsilon above ``tol``), and an
    InternalConsistencyError otherwise.  Returns the pairs and those errors,
    keyed by point index.
    """
    Lam = multiplier_matrix(comp)
    ZT = np.swapaxes(dense_rows(zeta), -1, -2)  # (..., N, k)
    Q = ZT @ Lam @ dphi
    P = np.eye(Q.shape[-1]) - Q
    # spectral norms, of the N x N matrices in one call
    square = np.linalg.norm(np.stack([Q, P @ P - P, Q @ Q - Q, P @ Q]), 2, axis=(-2, -1))
    scale = np.maximum(1.0, square[0])
    checks = {
        "P^2-P": square[1],
        "Q^2-Q": square[2],
        "PQ": square[3],
        "dphi.P": np.linalg.norm(dphi @ P, 2, axis=(-2, -1)),
        "Q.zeta-zeta": np.linalg.norm(Q @ ZT - ZT, 2, axis=(-2, -1)),
    }
    worst = np.max(list(checks.values()), axis=0)

    def error(idx):
        bad = max(checks, key=lambda name: checks[name][idx])
        msg = f"projector invariant {bad} violated: residual {checks[bad][idx]:.3e}"
        cond = float(comp["cond"][idx])
        if cond * np.finfo(float).eps > tol:
            return CompatibilityError(
                f"{msg}; the compatibility matrix is ill-conditioned "
                f"(condition number {cond:.3e} relative to its scale)")
        return InternalConsistencyError(msg)

    return (ProjectorPair(P, Q, Lam, zeta.copy(), dphi),
            errors_at(worst > tol * scale, error))


def build_projectors(zb: ZetaBasis, cp: ConstraintPoint, tol: float = 1e-9,
                     comp: dict | None = None) -> ProjectorPair:
    """``projector_pairs`` at one point, raising its error; ``comp`` is the
    ``compatibility_matrix`` verdict at the point, computed at its default
    tolerance when not given."""
    if comp is None:
        comp = compatibility_matrix(zb.zeta, cp.dphidv)
    pp, errors = projector_pairs(zb.zeta, cp.dphi, comp, tol)
    raise_first(errors)
    return pp
