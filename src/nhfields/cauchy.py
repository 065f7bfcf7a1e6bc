"""Discretized Cauchy data on a periodic spatial torus and its evolution.

A state holds field values on a uniform grid over [0,1)^n (unit volume, so
the induced one-form eta-tilde of a time-normalized variation integrates to
one).  The induced forms are quadratures of pointwise contractions of
Omega_L along the embedding; the second-order vector field is built per
grid point from the section-adapted free De Donder-Weyl solution (spatial
connection block pinned from grid derivatives) and, in the constrained
case, projected pointwise through the nonholonomic projector, which fixes
the temporal multipliers uniquely and keeps the evolution tangent to the
constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constraint import ConstraintSpec, coefficient_arrays, phi_eval_batch
from .ddw import solve_temporal_block
from .exceptions import (
    DimensionMismatchError,
    DriftError,
    EvaluationError,
    IntegrationError,
    InvalidArgumentError,
)
from .jet import Dims, periodic_derivative
from .lagrangian import (
    LagrangianModel,
    derivative_bundle_arrays,
    first_derivatives_arrays,
    hessian_flat,
    omega_eval_batch,
)
from .projector import multiplier_matrix, project_lifts, solve_zeta_flat

_DERIVATIVES = ("spectral", "fd4")


def grid_derivative(arr: np.ndarray, grid_shape: tuple, axis: int,
                    method: str = "spectral") -> np.ndarray:
    """d/du_i of a periodic grid field; trailing axes are field components."""
    N = grid_shape[axis]
    if method == "spectral":
        k = 2j * np.pi * np.fft.fftfreq(N, d=1.0 / N)
        shape = [1] * arr.ndim
        shape[axis] = N
        spec = np.fft.fft(arr, axis=axis) * k.reshape(shape)
        return np.real(np.fft.ifft(spec, axis=axis))
    if method == "fd4":
        return periodic_derivative(arr, 1.0 / N, axis=axis, order=4)
    raise InvalidArgumentError(f"derivative method must be one of {_DERIVATIVES}")


def grid_coordinates(shape: tuple) -> list[np.ndarray]:
    axes = [np.arange(N) / N for N in shape]
    return list(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class CauchyState:
    """Fields on the spatial grid at one time.

    mode "pde": y and ydot are evolved, the spatial jet block is
    reconstructed by differentiation.  mode "fulljet": y, v0 and vi are all
    independent data (holonomy of vi is diagnosed, never enforced).

    y_offset "identity" marks states whose stored y is a displacement from
    the identity map u -> u (used by the continuum scenarios, where the
    actual deformation is not a periodic function); it requires m == n.
    """

    t: float
    y: np.ndarray
    mode: str = "pde"
    ydot: np.ndarray | None = None
    v0: np.ndarray | None = None
    vi: np.ndarray | None = None
    y_offset: str = "none"

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if self.mode not in ("pde", "fulljet"):
            raise InvalidArgumentError(f"unknown state mode {self.mode!r}")
        if self.mode == "pde":
            if self.ydot is None:
                raise InvalidArgumentError("pde mode needs ydot")
            arr = np.asarray(self.ydot, dtype=float)
            if arr.shape != y.shape:
                raise DimensionMismatchError("ydot must match y shape")
            object.__setattr__(self, "ydot", arr)
        else:
            if self.v0 is None or self.vi is None:
                raise InvalidArgumentError("fulljet mode needs v0 and vi")
            v0 = np.asarray(self.v0, dtype=float)
            vi = np.asarray(self.vi, dtype=float)
            if v0.shape != y.shape or vi.shape != y.shape + (self.n,):
                raise DimensionMismatchError("v0/vi shapes inconsistent with y")
            object.__setattr__(self, "v0", v0)
            object.__setattr__(self, "vi", vi)
        if self.y_offset not in ("none", "identity"):
            raise InvalidArgumentError(f"unknown y_offset {self.y_offset!r}")
        if self.y_offset == "identity" and self.m != self.n:
            raise InvalidArgumentError("identity offset needs m == n")

    @property
    def grid_shape(self) -> tuple:
        return self.y.shape[:-1]

    @property
    def n(self) -> int:
        return self.y.ndim - 1

    @property
    def m(self) -> int:
        return self.y.shape[-1]

    def velocity(self) -> np.ndarray:
        return self.ydot if self.mode == "pde" else self.v0

    def spatial_jet(self, method: str = "spectral") -> np.ndarray:
        """vi as (grid..., m, n): stored in fulljet mode, reconstructed from
        y by grid differentiation in pde mode."""
        if self.mode == "fulljet":
            return self.vi
        cols = [
            grid_derivative(self.y, self.grid_shape, i, method)
            for i in range(self.n)
        ]
        vi = np.stack(cols, axis=-1)
        if self.y_offset == "identity":
            vi = vi + np.eye(self.n)
        return vi

    def dy_actual(self, axis: int, method: str = "spectral") -> np.ndarray:
        """Grid derivative of the actual section values along one axis."""
        d = grid_derivative(self.y, self.grid_shape, axis, method)
        if self.y_offset == "identity":
            d = d + np.eye(self.n)[:, axis]
        return d

    def jet_arrays(self, method: str = "spectral"):
        """Batched jet coordinates (x, y, v) with the grid as batch shape."""
        G = self.grid_shape
        coords = grid_coordinates(G)
        x = np.empty(G + (self.n + 1,))
        x[..., 0] = self.t
        for i in range(self.n):
            x[..., i + 1] = coords[i]
        y = self.y
        if self.y_offset == "identity":
            y = y + np.stack(coords, axis=-1)
        v = np.concatenate(
            [self.velocity()[..., None], self.spatial_jet(method)], axis=-1
        )
        return x, y, v

    def tangent_vectors(self, method: str = "spectral") -> np.ndarray:
        """The n embedding tangents T_i as dense rows (grid..., n, N).

        Uses the same grid derivative operator as the jet assembly so that
        the tangents agree exactly with the section-adapted connection.
        """
        G = self.grid_shape
        n, m = self.n, self.m
        dims = Dims(n, m)
        v0 = self.velocity()
        vi = self.spatial_jet(method)
        T = np.zeros(G + (n, dims.N))
        for i in range(n):
            T[..., i, 1 + i] = 1.0
            T[..., i, dims.nx : dims.nx + m] = self.dy_actual(i, method)
            dvi0 = grid_derivative(v0, G, i, method)
            dvii = grid_derivative(vi, G, i, method)
            dv = np.concatenate([dvi0[..., None], dvii], axis=-1)
            T[..., i, dims.nx + m :] = dv.reshape(G + (m * dims.nx,))
        return T


@dataclass(frozen=True)
class StateVariation:
    """A discretized vector field along the embedded state: per-point
    tangent blocks dx (grid.., n+1), dy (grid.., m), dv (grid.., m, n+1)."""

    dx: np.ndarray
    dy: np.ndarray
    dv: np.ndarray

    def dense(self) -> np.ndarray:
        G = self.dy.shape[:-1]
        return np.concatenate(
            [self.dx, self.dy, self.dv.reshape(G + (-1,))], axis=-1
        )

    @staticmethod
    def from_dense(arr: np.ndarray, n: int, m: int) -> "StateVariation":
        G = arr.shape[:-1]
        nx = n + 1
        return StateVariation(
            arr[..., :nx],
            arr[..., nx : nx + m],
            arr[..., nx + m :].reshape(G + (m, nx)),
        )

    @staticmethod
    def random(state: CauchyState, rng) -> "StateVariation":
        G, n, m = state.grid_shape, state.n, state.m
        return StateVariation(
            rng.uniform(-1, 1, G + (n + 1,)),
            rng.uniform(-1, 1, G + (m,)),
            rng.uniform(-1, 1, G + (m, n + 1)),
        )


def tilde_eta_contract(state: CauchyState, W: StateVariation) -> float:
    """eta-tilde(W) = integral of the time component of W over the slice.

    The pullback of i_W (dt ^ eta_M) along the embedding keeps only the
    dx^0 component; periodic trapezoid quadrature is the plain grid mean.
    """
    if W.dy.shape[:-1] != state.grid_shape:
        raise DimensionMismatchError("variation grid does not match state")
    return float(np.mean(W.dx[..., 0]))


def tilde_omega_contract(model: LagrangianModel, state: CauchyState,
                         W: StateVariation, Wp: StateVariation,
                         method: str = "spectral") -> float:
    """Omega-tilde_L(W, W') = integral of Omega_L(W', W, T_1..T_n) over the
    grid, with T_i the embedding tangents."""
    return _omega_tilde(_slice_geometry(model, state, method), W, Wp)


def sode_vector_field(model: LagrangianModel, spec: ConstraintSpec | None,
                      state: CauchyState, method: str = "spectral",
                      drift_tol: float = 1e-6) -> StateVariation:
    """The (projected) second-order vector field evaluated on the state.

    On the whole grid at once: solve the free De Donder-Weyl temporal block
    with the spatial block pinned from grid derivatives, then (with a
    constraint) project the time-horizontal lift through the nonholonomic
    projector.  The returned variation has dx = (1, 0, ...) and dy equal to
    the state's v0 block, which is the second-order condition.
    """
    G = state.grid_shape
    n, m = state.n, state.m
    nx = n + 1
    x, y, v = state.jet_arrays(method)
    bundle = derivative_bundle_arrays(model, x, y, v)

    # spatial-first-index block pinned to the grid derivatives of the jet
    Gsp = np.empty(G + (m, n, nx))
    for i in range(n):
        dv = grid_derivative(v, G, i, method)  # (G.., m, nx)
        Gsp[..., :, i, :] = dv
    Gt = solve_temporal_block(bundle, v, Gsp)

    if spec is not None:
        phi = spec.values_arrays(x, y, v)
        drift = float(np.max(np.abs(phi), initial=0.0))
        if drift > drift_tol:
            raise DriftError(
                f"state is off the constraint set: max|phi| = {drift:.3e} "
                f"exceeds {drift_tol:.1e}"
            )
        dphidx, dphidy, dphidv = spec.derivatives_arrays(x, y, v)
        C = coefficient_arrays(spec, x, y, v, dphidv)
        zeta = solve_zeta_flat(hessian_flat(bundle), C)
        dphi = np.concatenate(
            [dphidx, dphidy, dphidv.reshape(G + (spec.k, -1))], axis=-1
        )
        # the time-horizontal lift H_0: Gamma^b_0 = v^b_0 and the solved block
        Gamma2, _ = project_lifts(v[..., :, :1], Gt[..., :, None, :], dphi,
                                  multiplier_matrix(zeta, dphidv), zeta)
        Gt = Gamma2[..., :, 0, :]

    dx = np.zeros(G + (nx,))
    dx[..., 0] = 1.0
    return StateVariation(dx, v[..., :, 0].copy(), Gt)


@dataclass(frozen=True)
class _SliceGeometry:
    """Cached per-slice data for repeated induced-form evaluations."""

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    bundle: object
    T: np.ndarray  # (grid.., n, N)


def _slice_geometry(model, state: CauchyState, method: str) -> _SliceGeometry:
    x, y, v = state.jet_arrays(method)
    return _SliceGeometry(
        x, y, v, derivative_bundle_arrays(model, x, y, v),
        state.tangent_vectors(method),
    )


def _omega_tilde(geom: _SliceGeometry, W: StateVariation,
                 Wp: StateVariation) -> float:
    vecs = np.concatenate(
        [Wp.dense()[..., None, :], W.dense()[..., None, :], geom.T], axis=-2
    )
    return float(np.mean(omega_eval_batch(geom.bundle, geom.v, vecs)))


def free_sode_omega_values(model: LagrangianModel, state: CauchyState,
                           variations, method: str = "spectral") -> np.ndarray:
    """i_Gamma Omega-tilde_L on a list of variations for the free field.

    Vanishes (to quadrature/solver accuracy) when Gamma comes from a
    connection solving the free De Donder-Weyl equation along the slice.
    """
    geom = _slice_geometry(model, state, method)
    gamma = sode_vector_field(model, None, state, method)
    return np.array([_omega_tilde(geom, gamma, W) for W in variations])


def constraint_ansatz_fit(model: LagrangianModel, spec: ConstraintSpec,
                          state: CauchyState, variations,
                          method: str = "spectral") -> dict:
    """Fit i_{P Gamma} Omega-tilde - i_Gamma Omega-tilde by a grid-sampled
    section of the induced constraint codistribution.

    The ansatz has one coefficient per constraint per grid point,
    alpha-tilde(W) = mean_j c_alpha(u_j) Phi_alpha(W(u_j), T_1..T_n(u_j));
    returns the least-squares coefficients and the worst-case fit residual.
    """
    geom = _slice_geometry(model, state, method)
    gamma = sode_vector_field(model, None, state, method)
    pgamma = sode_vector_field(model, spec, state, method)
    lhs = np.array(
        [_omega_tilde(geom, pgamma, W) - _omega_tilde(geom, gamma, W)
         for W in variations]
    )
    dphidv = spec.derivatives_arrays(geom.x, geom.y, geom.v)[2]
    C = coefficient_arrays(spec, geom.x, geom.y, geom.v, dphidv)
    G = state.grid_shape
    B = int(np.prod(G))
    cols = []
    for W in variations:
        vecs = np.concatenate([W.dense()[..., None, :], geom.T], axis=-2)
        vals = phi_eval_batch(C, geom.v, vecs)  # (G.., k)
        cols.append(vals.reshape(B * spec.k) / B)
    M = np.asarray(cols)  # (R, B k)
    coeff, *_ = np.linalg.lstsq(M, lhs, rcond=None)
    resid = float(np.max(np.abs(lhs - M @ coeff), initial=0.0))
    return {"residual": resid, "coefficients": coeff.reshape(G + (spec.k,)),
            "values": lhs}


def ftilde_annihilator_rows(spec: ConstraintSpec, geom: _SliceGeometry) -> np.ndarray:
    """Per-point covectors w -> Phi_alpha(w, T_1..T_n), shape (grid.., k, N).

    A variation annihilating these rows at every grid point annihilates
    every section of the induced codistribution F-tilde.
    """
    dims = spec.dims
    G = geom.v.shape[:-2]
    dphidv = spec.derivatives_arrays(geom.x, geom.y, geom.v)[2]
    C = coefficient_arrays(spec, geom.x, geom.y, geom.v, dphidv)
    rows = np.empty(G + (spec.k, dims.N))
    basis = np.eye(dims.N)
    for j in range(dims.N):
        w = np.broadcast_to(basis[j], G + (dims.N,))
        vecs = np.concatenate([w[..., None, :], geom.T], axis=-2)
        rows[..., j] = phi_eval_batch(C, geom.v, vecs)
    return rows


def constrained_membership_check(model: LagrangianModel, spec: ConstraintSpec,
                                 state: CauchyState, variations,
                                 method: str = "spectral") -> np.ndarray:
    """i_{P Gamma} Omega-tilde_L on variations tangent to the constrained
    state space that also annihilate the induced codistribution.

    Each supplied variation is projected pointwise onto the joint kernel of
    d phi_alpha (tangency to the constraint set) and of the F-tilde rows
    Phi_alpha(. , T_1..T_n); on that class the constrained equation forces
    the contraction to vanish.
    """
    geom = _slice_geometry(model, state, method)
    pgamma = sode_vector_field(model, spec, state, method)
    dphidx, dphidy, dphidv = spec.derivatives_arrays(geom.x, geom.y, geom.v)
    G = state.grid_shape
    k = spec.k
    dphi = np.concatenate(
        [dphidx, dphidy, dphidv.reshape(G + (k, -1))], axis=-1
    )  # (G.., k, N)
    rows = np.concatenate([dphi, ftilde_annihilator_rows(spec, geom)], axis=-2)
    pinv = np.linalg.pinv(rows)  # (G.., N, 2k)
    out = []
    for W in variations:
        dense = W.dense()
        corr = np.einsum("...nr,...r->...n", pinv,
                         np.einsum("...rn,...n->...r", rows, dense))
        Wt = StateVariation.from_dense(dense - corr, state.n, state.m)
        out.append(_omega_tilde(geom, pgamma, Wt))
    return np.asarray(out)


def _pack(state: CauchyState) -> np.ndarray:
    if state.mode == "pde":
        return np.concatenate([state.y, state.ydot], axis=-1)
    G = state.grid_shape
    return np.concatenate(
        [state.y, state.v0, state.vi.reshape(G + (-1,))], axis=-1
    )


def _unpack(state: CauchyState, arr: np.ndarray, t: float) -> CauchyState:
    m, n = state.m, state.n
    G = state.grid_shape
    if state.mode == "pde":
        return replace(state, t=t, y=arr[..., :m], ydot=arr[..., m:])
    return replace(
        state,
        t=t,
        y=arr[..., :m],
        v0=arr[..., m : 2 * m],
        vi=arr[..., 2 * m :].reshape(G + (m, n)),
    )


def _rhs(model, spec, state: CauchyState, method, drift_tol) -> np.ndarray:
    var = sode_vector_field(model, spec, state, method, drift_tol)
    if state.mode == "pde":
        return np.concatenate([state.ydot, var.dv[..., :, 0]], axis=-1)
    G = state.grid_shape
    return np.concatenate(
        [state.v0, var.dv[..., :, 0], var.dv[..., :, 1:].reshape(G + (-1,))],
        axis=-1,
    )


def energy(model: LagrangianModel, state: CauchyState,
           method: str = "spectral") -> float:
    """Mean of ydot . dL/dv_0 - L over the slice."""
    x, y, v = state.jet_arrays(method)
    L, _, dLdv = first_derivatives_arrays(model, x, y, v)
    return float(np.mean(np.einsum("...a,...a->...", v[..., :, 0], dLdv[..., :, 0]) - L))


def holonomy_defect(state: CauchyState, method: str = "spectral") -> float:
    """max |vi - D_u y| in fulljet mode (0 by construction in pde mode)."""
    if state.mode == "pde":
        return 0.0
    recon = np.stack(
        [state.dy_actual(i, method) for i in range(state.n)], axis=-1
    )
    return float(np.max(np.abs(state.vi - recon), initial=0.0))


def project_onto_constraint(spec: ConstraintSpec, state: CauchyState,
                            method: str = "spectral", iters: int = 2) -> CauchyState:
    """Newton re-projection of the jet block onto phi = 0 (stabilization)."""
    if state.mode != "fulljet":
        raise InvalidArgumentError("stabilization applies to fulljet states")
    v0, vi = state.v0, state.vi
    G = state.grid_shape
    m, n = state.m, state.n
    for _ in range(iters):
        work = replace(state, v0=v0, vi=vi)
        x, y, v = work.jet_arrays(method)
        phi = spec.values_arrays(x, y, v)
        _, _, dphidv = spec.derivatives_arrays(x, y, v)
        J = dphidv.reshape(G + (spec.k, m * (n + 1)))
        delta = np.einsum("...ij,...j->...i", np.linalg.pinv(J), phi)
        dv = -delta.reshape(G + (m, n + 1))
        v0 = v0 + dv[..., 0]
        vi = vi + dv[..., 1:]
    return replace(state, v0=v0, vi=vi)


_BUTCHER = {
    "euler": ([1.0], [0.0]),
    "rk4": ([1 / 6, 1 / 3, 1 / 3, 1 / 6], [0.0, 0.5, 0.5, 1.0]),
}


@dataclass
class EvolutionResult:
    states: list
    diagnostics: dict


def evolve(model: LagrangianModel, spec: ConstraintSpec | None,
           state0: CauchyState, dt: float, steps: int,
           integrator: str = "rk4", method: str = "spectral",
           drift_tol: float = 1e-6, stabilize: bool = False) -> EvolutionResult:
    """Explicit time stepping of the (projected) second-order field.

    Diagnostics recorded per stored step: time, max |phi_alpha|, holonomy
    defect (fulljet), i_Gamma eta-tilde, and the slice energy.
    """
    name = integrator.lower()
    if name not in _BUTCHER:
        raise InvalidArgumentError(f"integrator must be one of {sorted(_BUTCHER)}")
    weights, nodes = _BUTCHER[name]

    state = state0
    states = [state0]
    diags = {"t": [], "max_phi": [], "holonomy": [], "eta": [], "energy": []}

    def record(s: CauchyState):
        diags["t"].append(s.t)
        if spec is not None:
            xj, yj, vj = s.jet_arrays(method)
            diags["max_phi"].append(
                float(np.max(np.abs(spec.values_arrays(xj, yj, vj)), initial=0.0))
            )
        else:
            diags["max_phi"].append(0.0)
        diags["holonomy"].append(holonomy_defect(s, method))
        var = sode_vector_field(model, spec, s, method, drift_tol)
        diags["eta"].append(tilde_eta_contract(s, var))
        diags["energy"].append(energy(model, s, method))

    record(state)
    for step in range(steps):
        y0 = _pack(state)
        t0 = state.t
        ks = []
        try:
            for w, c in zip(weights, nodes):
                if c == 0.0:
                    stage_state = state
                else:
                    stage_state = _unpack(state, y0 + dt * c * ks[-1], t0 + c * dt)
                ks.append(_rhs(model, spec, stage_state, method, drift_tol))
            ynew = y0 + dt * sum(w * k for w, k in zip(weights, ks))
            if not np.isfinite(ynew).all():
                raise IntegrationError(f"non-finite state after step {step + 1}")
            state = _unpack(state, ynew, t0 + dt)
            if stabilize and spec is not None:
                state = project_onto_constraint(spec, state, method)
            states.append(state)
            record(state)
        except EvaluationError as exc:
            raise IntegrationError(
                f"integration blew up at step {step + 1}: {exc}"
            ) from exc
    return EvolutionResult(states, {k: np.asarray(v) for k, v in diags.items()})
