"""Pointwise exterior algebra: wedge monomials of covectors and contractions.

A k-form is stored as a list of terms, each a coefficient times an ordered
wedge of k covectors.  Covectors are dense length-N arrays in the fixed
tangent layout (x-block, y-block, v-block a-major/mu-minor).  Evaluation of
one term on k tangent vectors is the determinant of the pairing matrix
A[i][j] = <factor_i, vector_j>, so antisymmetry and multilinearity are
inherited from the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, InvalidArgumentError


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector to the jet space in block components.

    dx: (n+1,) base components, dy: (m,) fiber components,
    dv: (m, n+1) jet components.  The flat layout is
    (x-block, y-block, v-block a-major/mu-minor), total
    N = (n+1) + m + m(n+1).
    """

    dx: np.ndarray
    dy: np.ndarray
    dv: np.ndarray
    components: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dx = np.asarray(self.dx, dtype=float)
        dy = np.asarray(self.dy, dtype=float)
        dv = np.asarray(self.dv, dtype=float)
        if dv.shape != (dy.shape[0], dx.shape[0]):
            raise DimensionMismatchError(
                f"dv shape {dv.shape} inconsistent with dx {dx.shape}, dy {dy.shape}"
            )
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dy", dy)
        object.__setattr__(self, "dv", dv)
        object.__setattr__(
            self, "components", np.concatenate([dx, dy, dv.ravel()])
        )

    @staticmethod
    def from_components(arr, n: int, m: int) -> "TangentVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != ((n + 1) + m + m * (n + 1),):
            raise DimensionMismatchError(
                f"components shape {arr.shape} does not match n={n}, m={m}"
            )
        dx = arr[: n + 1]
        dy = arr[n + 1 : n + 1 + m]
        dv = arr[n + 1 + m :].reshape(m, n + 1)
        return TangentVector(dx, dy, dv)

    @staticmethod
    def basis(index: int, n: int, m: int) -> "TangentVector":
        e = np.zeros((n + 1) + m + m * (n + 1))
        e[index] = 1.0
        return TangentVector.from_components(e, n, m)


def _as_covector_rows(factors, dim=None):
    """Stack covectors (dense arrays or basis indices) into a (k, N) matrix."""
    if len(factors) == 0:
        raise InvalidArgumentError("a wedge monomial needs at least one factor")
    dense = [f for f in factors if not isinstance(f, (int, np.integer))]
    if dim is None:
        if not dense:
            raise InvalidArgumentError(
                "cannot infer dimension from basis indices alone; pass dim"
            )
        dim = len(np.atleast_1d(dense[0]))
    rows = np.zeros((len(factors), dim))
    for i, f in enumerate(factors):
        if isinstance(f, (int, np.integer)):
            if not 0 <= f < dim:
                raise DimensionMismatchError(
                    f"basis covector index {f} outside layout of dimension {dim}"
                )
            rows[i, f] = 1.0
        else:
            f = np.asarray(f, dtype=float)
            if f.shape != (dim,):
                raise DimensionMismatchError(
                    f"covector has shape {f.shape}, expected ({dim},)"
                )
            rows[i] = f
    return rows


def vector_rows(vectors, dim) -> np.ndarray:
    """Components of a tuple of vectors as rows (..., k, dim): TangentVectors,
    or component arrays (..., dim) over common leading batch axes."""
    arrs = []
    for v in vectors:
        comp = _components(v)
        if comp.shape[-1:] != (dim,):
            raise DimensionMismatchError(
                f"vector has shape {comp.shape}, expected (..., {dim})"
            )
        arrs.append(comp)
    return np.stack(arrs, axis=-2) if arrs else np.zeros((0, dim))


def eval_wedge_monomial(factors, vectors) -> float:
    """Evaluate (f_1 ^ ... ^ f_k)(v_1, ..., v_k) = det <f_i, v_j>."""
    if len(factors) != len(vectors):
        raise DimensionMismatchError(
            f"{len(factors)} factors evaluated on {len(vectors)} vectors"
        )
    if len(vectors) == 0:
        raise InvalidArgumentError("a wedge monomial needs at least one factor")
    dim = len(_components(vectors[0]))
    rows = _as_covector_rows(factors, dim)
    return float(np.linalg.det(rows @ vector_rows(vectors, dim).T))


@dataclass(frozen=True)
class Form:
    """Sum of wedge monomials of common degree k on an N-dimensional layout.

    coeffs: (T,) term coefficients; factors: (T, k, N) dense covector rows.
    """

    coeffs: np.ndarray
    factors: np.ndarray

    @property
    def degree(self) -> int:
        return self.factors.shape[1]

    @property
    def dim(self) -> int:
        return self.factors.shape[2]

    @staticmethod
    def from_terms(terms, dim=None) -> "Form":
        """Build from [(coeff, [covector-or-index, ...]), ...]."""
        if not terms:
            raise InvalidArgumentError("a form needs at least one term")
        if dim is None:
            for _, fac in terms:
                for f in fac:
                    if not isinstance(f, (int, np.integer)):
                        dim = len(np.atleast_1d(f))
                        break
                if dim is not None:
                    break
        rows = [_as_covector_rows(fac, dim) for _, fac in terms]
        k = rows[0].shape[0]
        if any(r.shape[0] != k for r in rows):
            raise DimensionMismatchError("terms of a form must share the degree")
        return Form(np.array([c for c, _ in terms], dtype=float), np.stack(rows))

    def __call__(self, vectors) -> float:
        return float(self.eval_batch(np.asarray([_components(v) for v in vectors])[None])[0])

    def eval_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Evaluate on a batch of vector tuples, shape (B, k, N) -> (B,)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 3 or vectors.shape[1:] != (self.degree, self.dim):
            raise DimensionMismatchError(
                f"expected batch shape (B, {self.degree}, {self.dim}), got {vectors.shape}"
            )
        # pairing[b, t, i, j] = <factor_(t,i), vector_(b,j)>
        pairing = np.einsum("tin,bjn->btij", self.factors, vectors)
        return np.einsum("t,bt->b", self.coeffs, np.linalg.det(pairing))

    def contract(self, vector) -> "Form":
        """Interior product: returns the (k-1)-form i_v(self), term by term.

        For each term, deleting factor j picks up the sign (-1)^j (signed
        cofactor expansion along the column of v).
        """
        if self.degree < 1:
            raise InvalidArgumentError("cannot contract a 0-form")
        comp = _components(vector)
        if comp.shape != (self.dim,):
            raise DimensionMismatchError(
                f"vector has shape {comp.shape}, expected ({self.dim},)"
            )
        T, k, N = self.factors.shape
        pair = self.factors @ comp  # (T, k)
        if k == 1:
            # contraction of a 1-form is the scalar pairing
            return float(np.dot(self.coeffs, pair[:, 0]))
        coeffs = []
        rows = []
        for j in range(k):
            keep = np.delete(self.factors, j, axis=1)
            coeffs.append(self.coeffs * pair[:, j] * ((-1.0) ** j))
            rows.append(keep)
        return Form(np.concatenate(coeffs), np.concatenate(rows, axis=0))


def _components(v):
    return v.components if hasattr(v, "components") else np.asarray(v, dtype=float)

