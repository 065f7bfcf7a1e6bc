"""Jet coordinates, contact forms, minors, connections, the per-point
helpers of batched kernels, and the one periodic central-difference stencil.

Coordinates follow the fixed layout: base x^mu with mu = 0..n (x^0 plays the
role of time in Cauchy mode), fields y^a with a = 0..m-1, jet entries
v[a][mu] = dy^a/dx^mu.  Spatial grids are periodic on [0, 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    errors_at,
    raise_first,
)
from .exterior import TangentVector, join_blocks, split_blocks


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: spatial base dim n, fiber rank m, constraints k."""

    n: int
    m: int
    k: int = 0

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise InvalidArgumentError(f"need n >= 0, m >= 1, got n={self.n}, m={self.m}")
        if not 0 <= self.k <= self.m * (self.n + 1):
            raise InvalidArgumentError(
                f"need 0 <= k <= m(n+1) = {self.m * (self.n + 1)}, got k={self.k}"
            )

    @property
    def nx(self) -> int:
        return self.n + 1

    @property
    def N(self) -> int:
        """Total tangent dimension (n+1) + m + m(n+1)."""
        return self.nx + self.m + self.m * self.nx

    def ix(self, mu: int) -> int:
        return mu

    def iy(self, a: int) -> int:
        return self.nx + a

    def iv(self, a: int, mu: int) -> int:
        return self.nx + self.m + a * self.nx + mu


def seed_inputs(cls, x, y, v, dims: Dims, directions=None):
    """The generic-scalar arguments (xs, ys, vs) of a function of the jet,
    as lists over the coordinate arrays x (..., n+1), y (..., m) and
    v (..., m, n+1): plain arrays when ``cls`` is None, else every input
    seeded as the ``cls`` direction of its flat jet index, out of N.  With
    ``directions`` (flat jet indices) only those inputs are seeded, as
    directions 0, 1, ... in that order, and every other input is a ``cls``
    constant."""
    if directions is None:
        directions = range(dims.N)
    slot = {i: s for s, i in enumerate(directions)}

    def lift(arr, i):
        return arr if cls is None else cls.seed(arr, len(slot), slot.get(i))

    xs = [lift(x[..., t], dims.ix(t)) for t in range(dims.nx)]
    ys = [lift(y[..., a], dims.iy(a)) for a in range(dims.m)]
    vs = [[lift(v[..., a, mu], dims.iv(a, mu)) for mu in range(dims.nx)]
          for a in range(dims.m)]
    return xs, ys, vs


@dataclass(frozen=True)
class JetPoint:
    """A point of the first jet bundle: x (n+1,), y (m,), v (m, n+1)."""

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if v.shape != (y.shape[0], x.shape[0]):
            raise DimensionMismatchError(
                f"v shape {v.shape} inconsistent with x {x.shape}, y {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(v).all()):
            raise InvalidArgumentError("jet point entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.x) - 1

    @property
    def m(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class Jet2Point:
    """JetPoint plus symmetric second derivatives w[a][mu][nu]."""

    point: JetPoint
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        m, nx = self.point.v.shape
        if w.shape != (m, nx, nx):
            raise DimensionMismatchError(f"w shape {w.shape}, expected {(m, nx, nx)}")
        if np.max(np.abs(w - np.swapaxes(w, 1, 2)), initial=0.0) > 1e-9 * (
            1.0 + np.max(np.abs(w), initial=0.0)
        ):
            raise InvalidArgumentError("w must be symmetric in its derivative indices")
        object.__setattr__(self, "w", 0.5 * (w + np.swapaxes(w, 1, 2)))


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Connection coefficients Gamma^a_mu (..., m, n+1) and Gamma^a_{mu nu}
    (..., m, n+1, n+1) on the jet bundle, at one point or over leading batch
    axes.

    No symmetry of Gamma2 is assumed; holonomicity is a property to check.
    """

    Gamma: np.ndarray
    Gamma2: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.Gamma, dtype=float)
        G2 = np.asarray(self.Gamma2, dtype=float)
        if G.ndim < 2 or G2.shape != G.shape + G.shape[-1:]:
            raise DimensionMismatchError(
                f"Gamma2 shape {G2.shape}, expected {G.shape + G.shape[-1:]}")
        raise_first(connection_errors(G, G2))
        object.__setattr__(self, "Gamma", G)
        object.__setattr__(self, "Gamma2", G2)


def horizontal_lifts(Gamma: np.ndarray, Gamma2: np.ndarray) -> np.ndarray:
    """The lifts H_mu = d/dx^mu + Gamma^a_mu d/dy^a + Gamma^a_{mu nu} d/dv^a_nu,
    mu < L, as dense rows (..., L, N) from Gamma (..., m, L) and Gamma2
    (..., m, L, n+1), whose batch axes broadcast."""
    L, nx = Gamma2.shape[-2:]
    return join_blocks(np.eye(L, nx), np.swapaxes(Gamma, -1, -2), np.moveaxis(Gamma2, -2, -3))


def lift_pairings(dphi: np.ndarray, Gamma: np.ndarray, Gamma2: np.ndarray) -> np.ndarray:
    """dphi_alpha(H_mu) (..., k, L) of the covectors dphi (..., k, N) on the
    horizontal lifts of Gamma (..., m, L) and Gamma2 (..., m, L, n+1), by
    blocks, with no dense lift built."""
    m, L, nx = Gamma2.shape[-3:]
    dphix, dphiy, dphidv = split_blocks(dphi, m, nx)
    return (dphix[..., :L] + np.einsum("...kb,...bu->...ku", dphiy, Gamma)
            + np.einsum("...kbn,...bun->...ku", dphidv, Gamma2))


def connection_errors(Gamma: np.ndarray, Gamma2: np.ndarray) -> dict:
    """The InvalidArgumentError of each batch point whose connection
    coefficients are not all finite, keyed by point index."""
    batch = Gamma.ndim - 2
    finite = finite_points(Gamma, batch) & finite_points(Gamma2, batch)
    return errors_at(~finite, lambda idx: InvalidArgumentError(
        "connection coefficients must be finite"))


def finite_points(arr: np.ndarray, batch: int) -> np.ndarray:
    """Whether all entries of arr are finite, per point of its ``batch``
    leading axes."""
    return np.isfinite(arr).all(axis=tuple(range(batch, arr.ndim)))


def solve_points(A: np.ndarray, B: np.ndarray):
    """``np.linalg.solve(A, B)`` over the batch of square A (..., r, r) and
    B (..., r, c), and whether each point's A is singular.  The batched
    solve stops at its first singular matrix, so such a batch is solved
    point by point, with NaN at its singular points."""
    try:
        return np.linalg.solve(A, B), np.zeros(A.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        sol, singular = np.full(B.shape, np.nan), np.zeros(A.shape[:-2], dtype=bool)
        for idx in np.ndindex(A.shape[:-2]):
            try:
                sol[idx] = np.linalg.solve(A[idx], B[idx])
            except np.linalg.LinAlgError:
                singular[idx] = True
        return sol, singular


def contact_eval(p: JetPoint, u: TangentVector) -> np.ndarray:
    """theta^a(u) = u.dy[a] - sum_mu v[a][mu] u.dx[mu], for all a."""
    if u.dv.shape != p.v.shape:
        raise DimensionMismatchError(
            f"vector blocks {u.dv.shape} do not match jet point {p.v.shape}"
        )
    return u.dy - p.v @ u.dx


def contact_covectors(p: JetPoint) -> np.ndarray:
    """Dense rows (m, N) of the contact forms theta^a at p."""
    m, nx = p.v.shape
    return join_blocks(-p.v, np.eye(m), np.zeros((m, nx)))


def contact_pairings(v: np.ndarray, vecs: np.ndarray):
    """theta^a(w_j) (..., m, q) and dx^nu(w_j) (..., n+1, q) over tuples
    vecs (..., q, N) of vectors at jet coordinates v (..., m, n+1), whose
    leading shapes broadcast: the pairing rows of the form kernels."""
    dx, dy, _ = split_blocks(vecs, *v.shape[-2:])
    theta = dy.swapaxes(-1, -2) - np.einsum("...an,...qn->...aq", v, dx)
    return theta, dx.swapaxes(-1, -2)


@functools.cache
def _minor_table(R: int, Q: int, r: int):
    """Gather tables (r, P) of one Laplace level, P = C(R, r) C(Q, r): the
    r x r minor of an R x Q matrix X on rows I and columns J, expanded along
    its first row, is sum_t (-1)^t X[I_0, J_t] det X[I without I_0, J
    without J_t].  Row t of the first table picks X[I_0, J_t] from the
    flattened X, row t of the second the (r-1)-minor from the flattened level
    below; subsets are in lexicographic order."""
    lower_rows = {s: i for i, s in enumerate(itertools.combinations(range(R), r - 1))}
    lower_cols = {s: i for i, s in enumerate(itertools.combinations(range(Q), r - 1))}
    entry, lower = [], []
    for rows in itertools.combinations(range(R), r):
        for cols in itertools.combinations(range(Q), r):
            entry.append([rows[0] * Q + c for c in cols])
            lower.append([lower_rows[rows[1:]] * len(lower_cols)
                          + lower_cols[cols[:t] + cols[t + 1:]] for t in range(r)])
    tables = np.array(entry).T, np.array(lower).T
    for table in tables:  # cached, so shared by every caller
        table.flags.writeable = False
    return tables


def _minors(X: np.ndarray, r: int) -> list[np.ndarray]:
    """Every minor of X (R, Q, ...), batch axes last, of every size
    s = 0..r with r <= min(R, Q): entry s has shape (C(R, s), C(Q, s), ...)
    over the row and column subsets in lexicographic order.  Each size comes
    from the one below by Laplace expansion along the first selected row, so
    every minor is computed once and shared by all larger ones; size 0 is
    ones."""
    R, Q = X.shape[:2]
    batch = X.shape[2:]
    flat = np.ascontiguousarray(X).reshape(R * Q, math.prod(batch))
    lower = np.ones((1, flat.shape[1]))
    levels = [lower.reshape((1, 1) + batch)]
    for s in range(1, r + 1):
        entry, below = _minor_table(R, Q, s)
        level = flat[entry[0]] * lower[below[0]]
        for t in range(1, s):  # one term at a time bounds the temporaries
            term = flat[entry[t]]
            term *= lower[below[t]]
            if t % 2:
                level -= term
            else:
                level += term
        lower = level
        levels.append(lower.reshape((math.comb(R, s), math.comb(Q, s)) + batch))
    return levels


def dx_minors(vecs: np.ndarray, nx: int, r: int) -> list[np.ndarray]:
    """``_minors`` up to size r of the dx blocks X[nu, j] = dx^nu(w_j)
    (n+1, q) of the tuples vecs (..., q, N), batch axes last."""
    return _minors(np.moveaxis(vecs[..., :nx], (-1, -2), (0, 1)), r)


@functools.cache
def _deletion_table(Q: int, r: int) -> np.ndarray:
    """Gather table (Q, C(Q-1, r)): row j takes the r-column subsets of X
    without column j, in lexicographic order, to their index among the
    r-column subsets of X."""
    cols = {s: i for i, s in enumerate(itertools.combinations(range(Q), r))}
    table = np.array([[cols[s] for s in itertools.combinations(
        [c for c in range(Q) if c != j], r)] for j in range(Q)])
    table.flags.writeable = False  # cached, so shared by every caller
    return table


def deletion_minors(level: np.ndarray, Q: int, r: int) -> np.ndarray:
    """The level r of ``_minors`` of X without column j, for every column j
    of X (R, Q, ...), gathered from the level r (C(R, r), C(Q, r), ...) of
    ``_minors(X, r)``: shape (C(R, r), C(Q-1, r), ..., Q), the deleted column
    last.  Such a minor is the minor of X on the same rows and columns,
    expanded along the same Laplace path, so it has the same bits."""
    return np.moveaxis(level[:, _deletion_table(Q, r)], 1, -1)


def semiholonomic_residuals(Gamma: np.ndarray, v: np.ndarray):
    """max |Gamma^a_mu - v^a_mu| per batch point of Gamma and v (..., m, n+1);
    zero iff the connection is semi-holonomic.

    Cross-checked against the contact characterization: the residual equals
    the max of |theta^a(H_mu)| over the horizontal lifts.  Returns the
    residuals and the InternalConsistencyError of each point where the two
    disagree, keyed by point index.
    """
    direct = np.max(np.abs(Gamma - v), axis=(-2, -1), initial=0.0)
    # the lifts H_mu with a broadcast zero v-block, which theta^a does not read
    lifts = horizontal_lifts(Gamma, np.broadcast_to(0.0, Gamma.shape + Gamma.shape[-1:]))
    via_contact = np.max(np.abs(contact_pairings(v, lifts)[0]), axis=(-2, -1), initial=0.0)
    bad = np.abs(direct - via_contact) > 1e-12 * (1.0 + direct)
    return direct, errors_at(bad, lambda idx: InternalConsistencyError(
        f"contact cross-check {float(via_contact[idx])!r} disagrees with direct "
        f"{float(direct[idx])!r}"))


def semiholonomic_residual(c: ConnectionCoeffs, p: JetPoint) -> float:
    """``semiholonomic_residuals`` at one point, raising its error."""
    direct, errors = semiholonomic_residuals(c.Gamma, p.v)
    raise_first(errors)
    return float(direct)


# ---------------------------------------------------------------------------
# the one central-difference stencil

# fourth-order central first-derivative weights at offsets -2..2
STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
STENCIL.flags.writeable = False  # module-wide, so shared by every caller


def periodic_derivative(values: np.ndarray, h: float, axis: int = 0):
    """Fourth-order central-difference first derivative along ``axis`` of a
    grid with spacing h, periodic in that axis: ``STENCIL`` applied by
    rolling, so the values within two points of either end wrap around."""
    r = len(STENCIL) // 2
    if values.shape[axis] < len(STENCIL):
        raise InvalidArgumentError(
            f"need at least {len(STENCIL)} points per periodic direction for the "
            "fourth-order stencil"
        )
    out = np.zeros_like(np.asarray(values, dtype=float))
    for s, c in zip(range(-r, r + 1), STENCIL):
        if c != 0.0:
            out += c * np.roll(values, -s, axis=axis)
    return out / h
