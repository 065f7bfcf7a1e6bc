"""Constraint functions, Chetaev coefficients, and constraint (n+1)-forms.

A constraint specification holds k scalar functions phi_alpha(x, y, v) over
generic scalars so that all first derivatives come from forward-mode
differentiation.  Constraint forms are

    Phi_alpha = (C_alpha)^mu_a theta^a ^ d^n x_mu,

with the Chetaev choice (C_alpha)^mu_a = d phi_alpha / d v^a_mu by default,
or a user-supplied coefficient field.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .exceptions import (
    ConstraintRankError,
    DimensionMismatchError,
    EvaluationError,
    InvalidArgumentError,
    OffConstraintError,
)
from .exterior import Form, vector_rows
from .jet import Dims, JetPoint, contact_covectors, contact_pairings, seed_inputs

@dataclass(frozen=True)
class ConstraintSpec:
    """k constraint functions with their coefficient rule.

    The coefficients are the Chetaev ones dphi/dv unless ``custom_coeffs``
    is given; ``custom_coeffs(p)`` receives a ``JetPointArrays`` with
    batched x (..., n+1), y (..., m) and v (..., m, n+1) and must return the
    coefficients (C_alpha)^mu_a with trailing axes (k, n+1, m); leading axes
    broadcast against the batch, so a constant (k, n+1, m) array is valid.
    Constraints are evaluated on a neighborhood of the constraint set, not
    only on it, since projector construction needs off-manifold derivatives.
    """

    dims: Dims
    funcs: Sequence[Callable]
    custom_coeffs: Callable | None = None
    on_tol: float = 1e-8
    name: str = "custom"

    def __post_init__(self):
        if len(self.funcs) != self.dims.k:
            raise InvalidArgumentError(
                f"got {len(self.funcs)} functions for k={self.dims.k}"
            )

    @property
    def k(self) -> int:
        return self.dims.k

    # -- evaluation ---------------------------------------------------------

    def values_arrays(self, x, y, v) -> np.ndarray:
        """phi_alpha over coordinate arrays; returns (..., k)."""
        args = seed_inputs(None, np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                           np.asarray(v, dtype=float), self.dims)
        return np.stack(
            [np.asarray(f(*args), dtype=float) for f in self.funcs], axis=-1
        )

    def values(self, p: JetPoint) -> np.ndarray:
        return self.values_arrays(p.x, p.y, p.v)

    def full_differentials_arrays(self, x, y, v) -> np.ndarray:
        """Full differentials d phi_alpha over coordinate arrays, as dense
        rows (..., k, N) in the tangent layout."""
        dims = self.dims
        x = np.asarray(x, dtype=float)
        args = seed_inputs(ad.Dual, x, np.asarray(y, dtype=float),
                           np.asarray(v, dtype=float), dims, range(dims.N))
        grads = []
        for f in self.funcs:
            out = f(*args)
            if not isinstance(out, ad.Dual):
                out = ad.Dual.seed(np.asarray(out, dtype=float) + 0.0 * x[..., 0], dims.N)
            grads.append(out.grad)
        return np.stack(grads, axis=-2)

    def full_differentials(self, p: JetPoint) -> np.ndarray:
        """Dense rows (k, N) of the differentials d phi_alpha at p."""
        return self.full_differentials_arrays(p.x, p.y, p.v)

    def dphidv_arrays(self, x, y, v) -> np.ndarray:
        """The jet block dphi/dv (..., k, m, n+1) of the full differentials."""
        return jet_block(self.full_differentials_arrays(x, y, v),
                         self.dims.m, self.dims.nx)

    def at(self, p: JetPoint) -> "ConstraintPoint":
        """The constraint data of the pointwise chain at p, after checking
        that p lies on the constraint set: one evaluation of the
        differentials, from which the coefficients follow."""
        self.require_on_constraint(p)
        dphi = self.full_differentials(p)
        dphidv = jet_block(dphi, self.dims.m, self.dims.nx)
        return ConstraintPoint(p, dphi, coefficient_arrays(self, p.x, p.y, p.v, dphidv))

    def require_on_constraint(self, p: JetPoint, tol: float | None = None):
        vals = self.values(p)
        tol = self.on_tol if tol is None else tol
        if np.max(np.abs(vals), initial=0.0) > tol:
            raise OffConstraintError(
                f"point is off the constraint set: |phi| = {np.abs(vals).max():.3e} "
                f"(tolerance {tol:.1e}, values {vals.tolist()})"
            )


def jet_block(rows: np.ndarray, m: int, nx: int) -> np.ndarray:
    """The jet block (..., m, n+1) of dense rows (..., N)."""
    return rows[..., nx + m :].reshape(rows.shape[:-1] + (m, nx))


@dataclass(frozen=True)
class ConstraintPoint:
    """A point p of the constraint set with its constraint data: the full
    differentials dphi (k, N) and the coefficients (C_alpha)^mu_a
    (k, n+1, m).  ``ConstraintSpec.at`` makes it after checking that p is on
    the constraint set, so the solvers and checks that take it need not; k = 0
    (``unconstrained``) is the free problem."""

    p: JetPoint
    dphi: np.ndarray
    coeffs: np.ndarray

    @property
    def k(self) -> int:
        return self.dphi.shape[0]

    @property
    def dphidv(self) -> np.ndarray:
        return jet_block(self.dphi, self.p.m, self.p.n + 1)

    @staticmethod
    def unconstrained(p: JetPoint) -> "ConstraintPoint":
        m, nx = p.v.shape
        return ConstraintPoint(p, np.zeros((0, nx + m + m * nx)), np.zeros((0, nx, m)))


@dataclass(frozen=True)
class JetPointArrays:
    """Batched stand-in for JetPoint handed to custom coefficient fields."""

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray


def coefficient_arrays(spec: ConstraintSpec, x, y, v, dphidv) -> np.ndarray:
    """(C_alpha)^mu_a over a batch, shape (..., k, n+1, m): the Chetaev
    dphi/dv, or the user field ``custom_coeffs`` when the spec has one (see
    ``ConstraintSpec``)."""
    if spec.custom_coeffs is None:
        return np.swapaxes(dphidv, -1, -2)  # (.., k, m, n+1) -> (.., k, n+1, m)
    C = np.asarray(spec.custom_coeffs(JetPointArrays(x, y, v)), dtype=float)
    expected = (spec.k, spec.dims.nx, spec.dims.m)
    if C.shape[-3:] == expected:
        try:
            return np.broadcast_to(C, np.shape(v)[:-2] + expected)
        except ValueError:
            pass
    raise DimensionMismatchError(
        f"custom coefficients shape {C.shape}, expected trailing axes {expected}"
    )


def newton_onto_constraint(spec: ConstraintSpec, x, y, v, cols, tol: float, iters: int):
    """Minimum-norm Newton steps onto phi = 0 (Hairer, Lubich & Wanner, §IV.4)
    in the jet columns ``cols`` of the batched v (..., m, n+1), x and y fixed,
    until max|phi| < tol, for at most ``iters`` steps; returns the new v and
    whether the tolerance was met.  Non-finite phi raises EvaluationError."""
    v = np.array(v, dtype=float)
    for _ in range(iters):
        phi = spec.values_arrays(x, y, v)
        if not np.isfinite(phi).all():
            raise EvaluationError("non-finite constraint values in the Newton projection")
        if np.max(np.abs(phi)) < tol:
            return v, True
        J = spec.dphidv_arrays(x, y, v)[..., cols]  # (..., k, m, c)
        pinv = np.linalg.pinv(J.reshape(J.shape[:-2] + (-1,)))
        delta = np.einsum("...ij,...j->...i", pinv, phi)
        v[..., cols] -= delta.reshape(J.shape[:-3] + J.shape[-2:])
    return v, False


def chetaev_coefficients(spec: ConstraintSpec, p: JetPoint) -> np.ndarray:
    """(C_alpha)^mu_a at one point, shape (k, n+1, m): a batch of one of
    ``coefficient_arrays``."""
    return coefficient_arrays(spec, p.x, p.y, p.v, spec.dphidv_arrays(p.x, p.y, p.v))


def constraint_forms(p: JetPoint, coeffs: np.ndarray):
    """The constraint forms Phi_alpha at p as explicit Form objects, one per
    coefficient row (C_alpha)^mu_a of ``coeffs`` (k, n+1, m)."""
    theta = contact_covectors(p)
    m, nx = p.v.shape
    forms = []
    for alpha in range(coeffs.shape[0]):
        terms = []
        for a in range(m):
            for mu in range(nx):
                rest = [nu for nu in range(nx) if nu != mu]
                terms.append(
                    (coeffs[alpha, mu, a] * ((-1.0) ** mu), [theta[a]] + rest)
                )
        forms.append(Form.from_terms(terms, dim=theta.shape[1]))
    return forms


def constraint_form_eval(spec: ConstraintSpec, p: JetPoint, vecs) -> np.ndarray:
    """Evaluate all Phi_alpha on exactly n+1 tangent vectors: a batch of one
    of :func:`phi_eval_batch`."""
    return phi_eval_batch(chetaev_coefficients(spec, p), p.v,
                          vector_rows(vecs, spec.dims.N))


def phi_eval_batch(coeffs: np.ndarray, v: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Evaluate all Phi_alpha on one (n+1)-tuple of vectors per batch point.

    coeffs (..., k, n+1, m), v (..., m, n+1) and vecs (..., n+1, N), whose
    leading shapes broadcast; returns (..., k).  Same terms as
    :func:`constraint_forms`, the term-list oracle it is tested against.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    v = np.asarray(v, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    m, nx = v.shape[-2:]
    if vecs.shape[-2:] != (nx, nx + m + m * nx):
        raise DimensionMismatchError(
            f"constraint forms take n+1 = {nx} vectors of length "
            f"{nx + m + m * nx}, got shape {vecs.shape}"
        )
    theta_pair, x_rows = contact_pairings(v, vecs)
    batch = np.broadcast_shapes(coeffs.shape[:-3], theta_pair.shape[:-2])
    out = np.zeros(batch + (coeffs.shape[-3],))
    if coeffs.shape[-3] == 0:  # free case: no forms, no determinants
        return out
    A = np.empty(batch + (nx, nx))
    for a in range(m):
        for mu in range(nx):
            A[..., 0, :] = theta_pair[..., a, :]
            A[..., 1:, :] = np.delete(x_rows, mu, axis=-2)
            det = np.linalg.det(A)
            out += ((-1.0) ** mu) * coeffs[..., :, mu, a] * det[..., None]
    return out


def constraint_rank_check(cp: ConstraintPoint) -> int:
    """Rank of dphi/dv at an on-constraint point; raises if below k.

    The coefficients span the constraint forms, so they must have full rank
    as well (in Chetaev mode they are dphi/dv transposed).
    """
    rank = _rank_or_raise(cp.dphidv.reshape(cp.k, -1), cp.k,
                          "constraint jet derivatives")
    _rank_or_raise(cp.coeffs.reshape(cp.k, -1), cp.k, "constraint coefficients")
    return rank


def _rank_or_raise(mat: np.ndarray, k: int, label: str) -> int:
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > 1e-8 * max(smax, 1e-300)))
    if rank < k:
        _, _, vt = np.linalg.svd(mat.T)
        combo = vt[-1]
        raise ConstraintRankError(
            f"{label} have rank {rank} < k={k}; deficient combination "
            f"~ {np.round(combo, 6).tolist()}"
        )
    return rank


# ---------------------------------------------------------------------------
# built-in constraint registry

def linear_transport_constraint(dims: Dims | None = None,
                                speed: float = 2.0) -> ConstraintSpec:
    """phi = v_0 - speed * v_1 for a single field on a 1+1 base."""
    dims = dims or Dims(1, 1, 1)
    if dims.k != 1 or dims.m != 1 or dims.n != 1:
        raise InvalidArgumentError("linear-transport needs n=1, m=1, k=1")

    def phi(x, y, v):
        return v[0][0] - speed * v[0][1]

    return ConstraintSpec(dims, [phi], name="linear-transport")


def incompressibility_constraint(dims: Dims | None = None) -> ConstraintSpec:
    """phi = det(spatial jet block) - 1 for the 3+1 continuum scenario."""
    dims = dims or Dims(3, 3, 1)
    if dims.k != 1 or dims.m != dims.n:
        raise InvalidArgumentError("incompressibility needs m = n and k = 1")

    def phi(x, y, v):
        spatial = [[v[a][i + 1] for i in range(dims.n)] for a in range(dims.m)]
        return ad.det(spatial) - 1.0

    return ConstraintSpec(dims, [phi], name="incompressibility")


CONSTRAINTS: dict[str, Callable] = {
    "linear-transport": linear_transport_constraint,
    "incompressibility": incompressibility_constraint,
}


def make_constraint(name: str, params=None) -> ConstraintSpec:
    if name not in CONSTRAINTS:
        raise InvalidArgumentError(
            f"unknown constraint {name!r}; available: {sorted(CONSTRAINTS)}"
        )
    params = dict(params or {})
    if "dims" in params:
        raise InvalidArgumentError(f"dims is not a parameter of constraint {name!r}")
    return CONSTRAINTS[name](**params)


def load_custom_coeffs_csv(path, dims: Dims) -> np.ndarray:
    """Constant coefficient matrix from CSV: row alpha, columns (mu, a) in
    layout order (mu-major)."""
    with open(path, newline="") as fh:
        rows = [[float(c) for c in row] for row in csv.reader(fh) if row]
    arr = np.asarray(rows)
    expected_cols = dims.nx * dims.m
    if arr.shape != (dims.k, expected_cols):
        raise InvalidArgumentError(
            f"coefficient CSV shape {arr.shape}, expected ({dims.k}, {expected_cols})"
        )
    return arr.reshape(dims.k, dims.nx, dims.m)
