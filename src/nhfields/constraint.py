"""Constraint functions, Chetaev coefficients, and constraint (n+1)-forms.

A constraint specification holds k scalar functions phi_alpha(x, y, v) over
generic scalars so that all first derivatives come from forward-mode
differentiation.  Constraint forms are

    Phi_alpha = (C_alpha)^mu_a theta^a ^ d^n x_mu,

with the Chetaev choice (C_alpha)^mu_a = d phi_alpha / d v^a_mu by default,
or user-supplied constant coefficients.
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
    errors_at,
    raise_first,
)
from .exterior import Form, split_blocks, vector_rows
from .jet import (
    Dims,
    JetPoint,
    contact_covectors,
    contact_pairings,
    dx_minors,
    seed_inputs,
)

@dataclass(frozen=True)
class ConstraintSpec:
    """k constraint functions with their coefficient rule.

    The coefficients are the Chetaev ones dphi/dv unless ``coeffs`` is
    given: constant coefficients (C_alpha)^mu_a of shape (k, n+1, m).
    Constraints are evaluated on a neighborhood of the constraint set, not
    only on it, since projector construction needs off-manifold derivatives.
    """

    dims: Dims
    funcs: Sequence[Callable]
    coeffs: np.ndarray | None = None
    on_tol: float = 1e-8
    name: str = "custom"

    def __post_init__(self):
        if len(self.funcs) != self.dims.k:
            raise InvalidArgumentError(
                f"got {len(self.funcs)} functions for k={self.dims.k}"
            )
        if self.coeffs is not None:
            C = np.asarray(self.coeffs, dtype=float)
            expected = (self.k, self.dims.nx, self.dims.m)
            if C.shape != expected:
                raise DimensionMismatchError(
                    f"custom coefficients shape {C.shape}, expected {expected}")
            object.__setattr__(self, "coeffs", C)

    @property
    def k(self) -> int:
        return self.dims.k

    # -- evaluation ---------------------------------------------------------

    def values_arrays(self, x, y, v) -> np.ndarray:
        """phi_alpha (..., k) over coordinate arrays in plain arithmetic: the
        reference whose bits the values of :meth:`evaluate` have."""
        args = seed_inputs(None, np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                           np.asarray(v, dtype=float), self.dims)
        return np.stack(
            [np.asarray(f(*args), dtype=float) for f in self.funcs], axis=-1
        )

    def evaluate(self, x, y, v, directions=None) -> tuple[np.ndarray, np.ndarray]:
        """phi_alpha (..., k) and the full differentials d phi_alpha as dense
        C-contiguous rows (..., k, N) over coordinate arrays, from one
        first-order ``Dual`` pass whose values are phi with the bits of
        :meth:`values_arrays`; each phi's gradient is scattered from its
        support into its row, and entries off the support are +0.0.  With
        ``directions`` (flat jet indices) the rows hold only those columns,
        in that order, each with the bits of its full-row column.  Callers
        test phi for finiteness, so an overflow or inf * 0 in the pass is no
        error."""
        dims = self.dims
        x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
        args = seed_inputs(ad.Dual, x, y, v, dims, directions)
        d = dims.N if directions is None else len(directions)
        batch = v.shape[:-2]
        if x.shape[:-1] != batch or y.shape[:-1] != batch:
            batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], batch)
        phi = np.empty(batch + (self.k,))
        dphi = np.zeros(batch + (self.k, d))
        with np.errstate(over="ignore", invalid="ignore"):
            for alpha, f in enumerate(self.funcs):
                out = f(*args)
                if not isinstance(out, ad.Dual):
                    phi[..., alpha] = np.asarray(out, dtype=float) + 0.0 * x[..., 0]
                    continue
                phi[..., alpha] = out.val
                out.dense(d, dphi[..., alpha, :])
        return phi, dphi

    def dphidv_arrays(self, x, y, v) -> np.ndarray:
        """The jet block dphi/dv (..., k, m, n+1) of the full differentials."""
        return split_blocks(self.evaluate(x, y, v)[1], self.dims.m, self.dims.nx)[2]

    def at(self, p: JetPoint) -> "ConstraintPoint":
        """The constraint data of the pointwise chain at p, after checking
        that p lies on the constraint set (|phi| within ``on_tol``): one
        ``evaluate`` call, from which the coefficients follow."""
        phi, dphi = self.evaluate(p.x, p.y, p.v)
        raise_first(off_constraint_errors(phi, self.on_tol))
        dphidv = split_blocks(dphi, self.dims.m, self.dims.nx)[2]
        return ConstraintPoint(p, dphi, coefficient_arrays(self, dphidv))


def off_constraint_errors(phi: np.ndarray, tol: float) -> dict:
    """The OffConstraintError of each batch point whose constraint values
    phi (..., k) exceed ``tol``, keyed by point index."""
    worst = np.max(np.abs(phi), axis=-1, initial=0.0)
    return errors_at(worst > tol, lambda idx: OffConstraintError(
        f"point is off the constraint set: |phi| = {worst[idx]:.3e} "
        f"(tolerance {tol:.1e}, values {phi[idx].tolist()})"))


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
        return split_blocks(self.dphi, self.p.m, self.p.n + 1)[2]

    @staticmethod
    def unconstrained(p: JetPoint) -> "ConstraintPoint":
        return ConstraintPoint(p, np.zeros((0, Dims(p.n, p.m).N)), np.zeros((0, p.n + 1, p.m)))


def coefficient_arrays(spec: ConstraintSpec, dphidv: np.ndarray) -> np.ndarray:
    """(C_alpha)^mu_a over the batch of dphi/dv (..., k, m, n+1), shape
    (..., k, n+1, m): the Chetaev dphi/dv, or the spec's constant
    ``coeffs``."""
    if spec.coeffs is None:
        return np.swapaxes(dphidv, -1, -2)  # (.., k, m, n+1) -> (.., k, n+1, m)
    return np.broadcast_to(spec.coeffs, dphidv.shape[:-3] + spec.coeffs.shape)


def newton_onto_constraint(spec: ConstraintSpec, x, y, v, cols, tol: float, iters: int,
                           jointly: bool = False):
    """Minimum-norm Newton steps onto phi = 0 (Hairer, Lubich & Wanner, §IV.4)
    in the jet columns ``cols`` of the batched v (..., m, n+1), x and y fixed.

    Each batch point converges on its own: it takes steps until its own
    max|phi| < tol, for at most ``iters`` steps, and then leaves the batch, so
    its v is not written again.  With ``jointly`` the batch is one field,
    and every point takes steps until the max|phi| of the whole batch is
    below tol.  A pass makes one ``evaluate``, which differentiates only in
    the moved entries of v, and one batched ``pinv`` over the points still
    live; both work point by point, so every point gets the bits it has as
    a batch of one.  Returns the new v and per batch point whether it met
    the tolerance (with tol = 0 none does, and every point takes all
    ``iters`` steps).  Non-finite phi at a live point raises
    EvaluationError."""
    shape = np.shape(v)
    m, nx = shape[-2:]
    moved = np.arange(nx)[cols].tolist()
    directions = [spec.dims.iv(a, mu) for a in range(m) for mu in moved]
    flat = np.array(v, dtype=float).reshape(-1, m, nx)
    xs = np.broadcast_to(x, shape[:-2] + (nx,)).reshape(-1, nx)
    ys = np.broadcast_to(y, shape[:-2] + (m,)).reshape(-1, m)
    live = np.arange(len(flat))
    converged = np.zeros(len(flat), dtype=bool)
    for _ in range(iters):
        phi, J = spec.evaluate(xs, ys, flat[live], directions)  # J (live, k, m * c)
        if not np.isfinite(phi).all():
            raise EvaluationError("non-finite constraint values in the Newton projection")
        done = np.max(np.abs(phi), axis=-1, initial=0.0) < tol
        if jointly:
            done[:] = done.all()
        if done.any():
            converged[live[done]] = True
            live, xs, ys, phi, J = (a[~done] for a in (live, xs, ys, phi, J))
            if not live.size:
                break
        delta = np.einsum("...ij,...j->...i", np.linalg.pinv(J), phi)
        flat[live, :, cols] -= delta.reshape(len(live), m, len(moved))
    return flat.reshape(shape), converged.reshape(shape[:-2])


def chetaev_coefficients(spec: ConstraintSpec, p: JetPoint) -> np.ndarray:
    """(C_alpha)^mu_a at one point, shape (k, n+1, m): a batch of one of
    ``coefficient_arrays``."""
    return coefficient_arrays(spec, spec.dphidv_arrays(p.x, p.y, p.v))


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
    N = Dims(nx - 1, m).N
    if vecs.shape[-2:] != (nx, N):
        raise DimensionMismatchError(
            f"constraint forms take n+1 = {nx} vectors of length {N}, got shape {vecs.shape}"
        )
    theta_pair = contact_pairings(v, vecs)[0]
    if coeffs.shape[-3] == 0:  # free case: no forms, no minors
        return phi_from_pairings(coeffs, theta_pair, None)
    return phi_from_pairings(coeffs, theta_pair, dx_minors(vecs, nx, nx - 1)[-1])


def phi_from_pairings(coeffs: np.ndarray, theta: np.ndarray, minors) -> np.ndarray:
    """All Phi_alpha on (n+1)-tuples from their contact pairings
    theta^a(w_j) (..., m, n+1) and the n-minors of their square dx blocks X
    (the last level of ``dx_minors``, batch axes last); with k = 0 there
    are no forms, and ``minors`` is not read."""
    nx = theta.shape[-1]
    if coeffs.shape[-3] == 0:
        return np.zeros(np.broadcast_shapes(coeffs.shape[:-3], theta.shape[:-2]) + (0,))
    # det[theta^a; X without row mu] = sum_j (-1)^j theta^a_j M_n(rows != mu,
    # cols != j): the signed cofactors of the square dx block X
    sign = (-1.0) ** np.add.outer(np.arange(nx), np.arange(nx))
    cof = np.moveaxis(minors[::-1, ::-1], (0, 1), (-2, -1)) * sign
    return np.einsum("...kua,...au->...k", coeffs,
                     np.einsum("...aj,...uj->...au", theta, cof))


def constraint_ranks(dphidv: np.ndarray, coeffs: np.ndarray):
    """Rank of dphi/dv (..., k, m, n+1) per batch point of the constraint
    set, with the ConstraintRankError of each point where it or the
    coefficients (..., k, n+1, m) have rank below k, keyed by point index.

    The coefficients span the constraint forms, so they must have full rank
    as well (in Chetaev mode they are dphi/dv transposed).
    """
    k = dphidv.shape[-3]
    batch = dphidv.shape[:-3]
    rank, errors = _ranks(dphidv.reshape(batch + (k, -1)), "constraint jet derivatives")
    for idx, error in _ranks(coeffs.reshape(batch + (k, -1)), "constraint coefficients")[1].items():
        errors.setdefault(idx, error)
    return rank, errors


def constraint_rank_check(cp: ConstraintPoint) -> int:
    """``constraint_ranks`` at one point, raising its error."""
    rank, errors = constraint_ranks(cp.dphidv, cp.coeffs)
    raise_first(errors)
    return int(rank)


def _ranks(mats: np.ndarray, label: str):
    """Numerical ranks of the (..., k, c) matrices, with a ConstraintRankError
    naming a deficient row combination where the rank is below k."""
    k = mats.shape[-2]
    svals = np.linalg.svd(mats, compute_uv=False)
    smax = np.max(svals, axis=-1, initial=0.0)
    rank = np.sum(svals > 1e-8 * np.maximum(smax, 1e-300)[..., None], axis=-1)

    def error(idx):
        combo = np.linalg.svd(mats[idx].T)[2][-1]
        return ConstraintRankError(
            f"{label} have rank {rank[idx]} < k={k}; deficient combination "
            f"~ {np.round(combo, 6).tolist()}"
        )

    return rank, errors_at(rank < k, error)


# ---------------------------------------------------------------------------
# built-in constraint registry

def linear_transport_constraint(speed: float = 2.0) -> ConstraintSpec:
    """phi = v_0 - speed * v_1 for a single field on a 1+1 base."""

    def phi(x, y, v):
        return v[0][0] - speed * v[0][1]

    return ConstraintSpec(Dims(1, 1, 1), [phi], name="linear-transport")


def incompressibility_constraint() -> ConstraintSpec:
    """phi = det(spatial jet block) - 1 for the 3+1 continuum scenario."""

    def phi(x, y, v):
        spatial = [[v[a][i + 1] for i in range(3)] for a in range(3)]
        return ad.det(spatial) - 1.0

    return ConstraintSpec(Dims(3, 3, 1), [phi], name="incompressibility")


CONSTRAINTS: dict[str, Callable] = {
    "linear-transport": linear_transport_constraint,
    "incompressibility": incompressibility_constraint,
}


def make_constraint(name: str, params=None) -> ConstraintSpec:
    if name not in CONSTRAINTS:
        raise InvalidArgumentError(
            f"unknown constraint {name!r}; available: {sorted(CONSTRAINTS)}"
        )
    return CONSTRAINTS[name](**dict(params or {}))


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
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"coefficient CSV has non-finite entries: {rows}")
    return arr.reshape(dims.k, dims.nx, dims.m)
