"""Jet coordinates, numerical prolongation, contact forms, connections.

Coordinates follow the fixed layout: base x^mu with mu = 0..n (x^0 plays the
role of time in Cauchy mode), fields y^a with a = 0..m-1, jet entries
v[a][mu] = dy^a/dx^mu.  Spatial grids are periodic on [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
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
    """Connection coefficients Gamma^a_mu and Gamma^a_{mu nu} on the jet bundle.

    No symmetry of Gamma2 is assumed; holonomicity is a property to check.
    """

    Gamma: np.ndarray
    Gamma2: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.Gamma, dtype=float)
        G2 = np.asarray(self.Gamma2, dtype=float)
        m, nx = G.shape
        if G2.shape != (m, nx, nx):
            raise DimensionMismatchError(f"Gamma2 shape {G2.shape}, expected {(m, nx, nx)}")
        if not (np.isfinite(G).all() and np.isfinite(G2).all()):
            raise InvalidArgumentError("connection coefficients must be finite")
        object.__setattr__(self, "Gamma", G)
        object.__setattr__(self, "Gamma2", G2)

    def horizontal_lift(self, mu: int) -> TangentVector:
        """H_mu = d/dx^mu + Gamma^a_mu d/dy^a + Gamma^a_{mu nu} d/dv^a_nu."""
        m, nx = self.Gamma.shape
        dx = np.zeros(nx)
        dx[mu] = 1.0
        return TangentVector(dx, self.Gamma[:, mu], self.Gamma2[:, mu, :])


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


def semiholonomic_residual(c: ConnectionCoeffs, p: JetPoint) -> float:
    """max |Gamma^a_mu - v^a_mu|; zero iff the connection is semi-holonomic.

    Cross-checked against the contact characterization: the residual equals
    the max of |theta^a(H_mu)| over the horizontal lifts.
    """
    direct = float(np.max(np.abs(c.Gamma - p.v), initial=0.0))
    m, nx = c.Gamma.shape
    via_contact = 0.0
    for mu in range(nx):
        vals = contact_eval(p, c.horizontal_lift(mu))
        via_contact = max(via_contact, float(np.max(np.abs(vals), initial=0.0)))
    if abs(direct - via_contact) > 1e-12 * (1.0 + direct):
        raise InternalConsistencyError(
            f"contact cross-check {via_contact!r} disagrees with direct {direct!r}"
        )
    return direct


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

