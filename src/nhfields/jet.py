"""Jet coordinates, numerical prolongation, contact forms, connections.

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
from .exterior import TangentVector


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


def seed_inputs(cls, x, y, v, dims: Dims):
    """The generic-scalar arguments (xs, ys, vs) of a function of the jet,
    as lists over the coordinate arrays x (..., n+1), y (..., m) and
    v (..., m, n+1): plain arrays when ``cls`` is None, else every input
    seeded as the ``cls`` direction of its flat jet index, out of N."""

    def lift(arr, i):
        return arr if cls is None else cls.seed(arr, dims.N, i)

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

    def lift_components(self, mu: int) -> np.ndarray:
        """H_mu = d/dx^mu + Gamma^a_mu d/dy^a + Gamma^a_{mu nu} d/dv^a_nu as
        components (..., N) in the flat layout."""
        m, nx = self.Gamma.shape[-2:]
        batch = self.Gamma.shape[:-2]
        dx = np.zeros(batch + (nx,))
        dx[..., mu] = 1.0
        return np.concatenate([dx, self.Gamma[..., mu],
                               self.Gamma2[..., mu, :].reshape(batch + (m * nx,))], axis=-1)

    def horizontal_lift(self, mu: int) -> TangentVector:
        """H_mu at a single point."""
        m, nx = self.Gamma.shape
        return TangentVector.from_components(self.lift_components(mu), nx - 1, m)


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
    N = nx + m + m * nx
    rows = np.zeros((m, N))
    for a in range(m):
        rows[a, nx + a] = 1.0
        rows[a, :nx] = -p.v[a]
    return rows


def contact_pairings(v: np.ndarray, vecs: np.ndarray):
    """theta^a(w_j) (..., m, q) and dx^nu(w_j) (..., n+1, q) over tuples
    vecs (..., q, N) of vectors at jet coordinates v (..., m, n+1), whose
    leading shapes broadcast: the pairing rows of the form kernels."""
    m, nx = v.shape[-2:]
    theta = vecs[..., nx : nx + m].swapaxes(-1, -2) - np.einsum(
        "...an,...qn->...aq", v, vecs[..., :nx])
    return theta, vecs[..., :nx].swapaxes(-1, -2)


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
    nx = v.shape[-1]
    direct = np.max(np.abs(Gamma - v), axis=(-2, -1), initial=0.0)
    # the dx and dy blocks of the lifts H_mu: the identity and Gamma^a_mu
    lifts = np.concatenate([np.broadcast_to(np.eye(nx), Gamma.shape[:-2] + (nx, nx)),
                            np.swapaxes(Gamma, -1, -2)], axis=-1)
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
# numerical prolongation of sampled sections (n = 1, periodic in u)

_STENCILS = {
    4: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
    6: np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0,
}


def periodic_derivative(values: np.ndarray, h: float, axis: int = 0, order: int = 6):
    """Central-difference first derivative on a periodic grid."""
    if order not in _STENCILS:
        raise InvalidArgumentError(f"stencil order must be one of {sorted(_STENCILS)}")
    w = _STENCILS[order]
    r = len(w) // 2
    if values.shape[axis] < len(w):
        raise InvalidArgumentError(
            f"need at least {len(w)} points per periodic direction for order {order}"
        )
    out = np.zeros_like(np.asarray(values, dtype=float))
    for s, c in zip(range(-r, r + 1), w):
        if c != 0.0:
            out += c * np.roll(values, -s, axis=axis)
    return out / h


@dataclass(frozen=True)
class SectionSamples:
    """Field samples y(t_i, u_j) on a uniform periodic spatial grid.

    ts: (Nt,) times; us: (Nu,) spatial points in [0, 1); y: (Nt, Nu, m).
    Optional analytic time slices ydot, yddot (same shape as y) are used for
    temporal derivatives when present; otherwise finite differences in t.
    """

    ts: np.ndarray
    us: np.ndarray
    y: np.ndarray
    ydot: np.ndarray | None = None
    yddot: np.ndarray | None = None

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        us = np.asarray(self.us, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if y.shape[:2] != (len(ts), len(us)) or y.ndim != 3:
            raise InvalidArgumentError(
                f"y shape {y.shape} inconsistent with {len(ts)} times, {len(us)} points"
            )
        for name in ("ydot", "yddot"):
            arr = getattr(self, name)
            if arr is not None and np.asarray(arr).shape != y.shape:
                raise InvalidArgumentError(f"{name} must match y shape {y.shape}")
        du = np.diff(us)
        if len(us) > 1 and np.max(np.abs(du - du[0])) > 1e-12:
            raise InvalidArgumentError("spatial grid must be uniform")
        if len(ts) > 1:
            dt = np.diff(ts)
            if np.max(np.abs(dt - dt[0])) > 1e-12:
                raise InvalidArgumentError("time samples must be uniform")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "y", y)

    @property
    def h(self) -> float:
        return float(self.us[1] - self.us[0]) if len(self.us) > 1 else 1.0


def _check_periodic(samples: SectionSamples, order: int):
    """Reject samples whose wrap-around jump is inconsistent with smoothness.

    On a periodic grid the jump |y[0] - y[-1]| should be comparable to the
    interior one-step differences; a non-periodic section like y = u makes
    the wrap jump ~N times larger.
    """
    y = samples.y
    if y.shape[1] < len(_STENCILS[order]):
        raise InvalidArgumentError(
            f"need at least {len(_STENCILS[order])} points per periodic direction"
        )
    interior = np.abs(np.diff(y, axis=1))
    wrap = np.abs(y[:, 0, :] - y[:, -1, :])
    scale = max(np.max(interior, initial=0.0), 1e-12 * (1.0 + np.max(np.abs(y))))
    if np.max(wrap, initial=0.0) > 10.0 * scale:
        raise InvalidArgumentError(
            "section samples are not periodic in u (wrap jump "
            f"{np.max(wrap):.3g} vs interior scale {scale:.3g})"
        )


def prolong_section(samples: SectionSamples, target: tuple[int, int], order: int = 6) -> Jet2Point:
    """Second-order jet of a sampled section at grid index (it, iu).

    Spatial derivatives use central stencils of the given order on the
    periodic grid; temporal derivatives use the analytic ydot/yddot slices
    when available and finite differences in t otherwise.  The mixed block
    of w is symmetrized by averaging.
    """
    _check_periodic(samples, order)
    it, iu = target
    Nt, Nu, m = samples.y.shape
    if not (0 <= it < Nt and 0 <= iu < Nu):
        raise InvalidArgumentError(f"target {target} outside grid {(Nt, Nu)}")
    h = samples.h

    y_row = samples.y[it]  # (Nu, m)
    du_y = periodic_derivative(y_row, h, axis=0, order=order)
    du2_y = periodic_derivative(du_y, h, axis=0, order=order)

    if samples.ydot is not None:
        ydot_row = np.asarray(samples.ydot, dtype=float)[it]
    else:
        ydot_row = _time_derivative(samples.y, samples.ts, it)
    if samples.yddot is not None:
        yddot_row = np.asarray(samples.yddot, dtype=float)[it]
    elif samples.ydot is not None:
        yddot_row = _time_derivative(np.asarray(samples.ydot, dtype=float), samples.ts, it)
    else:
        yddot_row = _second_time_derivative(samples.y, samples.ts, it)
    du_ydot = periodic_derivative(ydot_row, h, axis=0, order=order)

    x = np.array([samples.ts[it], samples.us[iu]])
    y = samples.y[it, iu]
    v = np.stack([ydot_row[iu], du_y[iu]], axis=-1)  # (m, 2)

    w = np.zeros((m, 2, 2))
    w[:, 0, 0] = yddot_row[iu]
    w[:, 1, 1] = du2_y[iu]
    # mixed derivative: d_u(ydot); the pure-FD path in t of du_y gives the
    # transposed estimate and the two are averaged
    if samples.ydot is not None:
        mixed = du_ydot[iu]
        w[:, 0, 1] = w[:, 1, 0] = mixed
    else:
        dudt = _time_derivative(
            periodic_derivative(samples.y, h, axis=1, order=order), samples.ts, it
        )[iu]
        w[:, 0, 1] = w[:, 1, 0] = 0.5 * (du_ydot[iu] + dudt)
    return Jet2Point(JetPoint(x, y, v), w)


def mixed_partial_defect(samples: SectionSamples, order: int = 6) -> float:
    """Max asymmetry of the mixed second derivatives before averaging.

    Compares d_u(ydot) against d_t(d_u y) on interior time slices (the
    boundary slices only admit one-sided differences, which would swamp a
    genuine inconsistency of the supplied time derivatives).
    """
    if samples.ydot is None or len(samples.ts) < 3:
        return 0.0
    h = samples.h
    a = periodic_derivative(np.asarray(samples.ydot, dtype=float), h, axis=1, order=order)
    b = np.gradient(
        periodic_derivative(samples.y, h, axis=1, order=order), samples.ts, axis=0
    )
    return float(np.max(np.abs(a - b)[1:-1]))


def _time_derivative(arr: np.ndarray, ts: np.ndarray, it: int) -> np.ndarray:
    if len(ts) < 2:
        raise InvalidArgumentError("temporal derivative needs at least 2 time slices")
    return np.gradient(arr, ts, axis=0)[it]


def _second_time_derivative(arr: np.ndarray, ts: np.ndarray, it: int) -> np.ndarray:
    if len(ts) < 3:
        raise InvalidArgumentError("second temporal derivative needs >= 3 time slices")
    return np.gradient(np.gradient(arr, ts, axis=0), ts, axis=0)[it]

