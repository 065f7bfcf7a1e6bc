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
from functools import lru_cache

import numpy as np

from .constraint import (
    ConstraintSpec,
    coefficient_arrays,
    jet_block,
    newton_onto_constraint,
    phi_eval_batch,
)
from .ddw import solve_ddw
from .exceptions import (
    DimensionMismatchError,
    DriftError,
    EvaluationError,
    IntegrationError,
    InvalidArgumentError,
    raise_first,
)
from .jet import Dims, periodic_derivative
from .lagrangian import (
    DerivativeBundle,
    LagrangianModel,
    bundle_errors,
    derivative_bundle_arrays,
    hessian_flat,
    omega_eval_batch,
)
from .projector import (
    compatibility_matrix,
    multiplier_matrix,
    project_lifts,
    solve_zeta_flat,
)

DERIVATIVES = ("spectral", "fd4")
MODES = ("pde", "fulljet")


def grid_derivative(arr: np.ndarray, n: int, method: str = "spectral") -> np.ndarray:
    """D_i of a periodic grid field along its n leading (grid) axes, stacked
    last: (grid.., c..) -> (grid.., c.., n); the trailing axes c are field
    components."""
    if method not in DERIVATIVES:
        raise InvalidArgumentError(f"derivative method must be one of {DERIVATIVES}")
    out = np.empty(arr.shape + (n,))
    for axis in range(n):  # each written into the result as soon as it is taken
        N = arr.shape[axis]
        if method == "fd4":
            out[..., axis] = periodic_derivative(arr, 1.0 / N, axis=axis)
        else:
            spec = np.fft.fft(arr, axis=axis)
            spec *= _wavenumbers(N, axis, arr.ndim)
            out[..., axis] = np.fft.ifft(spec, axis=axis).real
    return out


@lru_cache(maxsize=32)
def _wavenumbers(N: int, axis: int, ndim: int) -> np.ndarray:
    """2 pi i k over the N points of a periodic axis, shaped to multiply the
    transform along ``axis`` of an ``ndim``-axis array; cached, read-only."""
    shape = [1] * ndim
    shape[axis] = N
    k = (2j * np.pi * np.fft.fftfreq(N, d=1.0 / N)).reshape(shape)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=8)
def grid_coordinates(shape: tuple) -> tuple[np.ndarray, ...]:
    """The coordinate arrays u^i = j_i / N_i of the grid, one per axis:
    cached for the last few shapes, and read-only."""
    axes = [np.arange(N) / N for N in shape]
    coords = tuple(np.meshgrid(*axes, indexing="ij"))
    for c in coords:
        c.flags.writeable = False
    return coords


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
        if self.mode not in MODES:
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
        """vi as (grid..., m, n): stored in fulljet mode, the section
        derivatives D_i y in pde mode."""
        return self.vi if self.mode == "fulljet" else _section_derivatives(self, method)

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


def _section_derivatives(state: CauchyState, method: str) -> np.ndarray:
    """D_i y of the actual section as (grid..., m, n): the grid derivatives
    of the stored y, plus the identity under an identity offset."""
    d = grid_derivative(state.y, state.n, method)
    return d + np.eye(state.n) if state.y_offset == "identity" else d


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
    geom = _slice_geometry(model, state, method)
    return float(_omega_tilde(geom, _tangent_rows(geom), W.dense(), Wp.dense()))


@dataclass(frozen=True)
class _SliceGeometry:
    """The one evaluation of a state that the field, the recorder and the
    checks share: the jet (x, y, v), the grid derivatives D_i v of the jet as
    dv (grid.., m, n, n+1) and the derivative bundle (``_slice_geometry``);
    then (``_evaluate``) the free temporal block Gfree (grid.., m, n+1), the
    block Gt the field uses, and with a constraint the full differentials
    dphi (grid.., k, N), the coefficients C (grid.., k, n+1, m) and the
    checked max|phi| over the slice (0 without a constraint)."""

    state: CauchyState
    method: str
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    dv: np.ndarray
    bundle: DerivativeBundle
    Gfree: np.ndarray | None = None
    Gt: np.ndarray | None = None
    dphi: np.ndarray | None = None
    C: np.ndarray | None = None
    max_phi: float = 0.0

    def field(self, Gt: np.ndarray | None = None) -> StateVariation:
        """The second-order field with temporal block Gt (by default the
        field's own): dx = (1, 0, ...) and dy the slice's v0 block."""
        v = self.v
        dx = np.zeros(v.shape[:-2] + v.shape[-1:])
        dx[..., 0] = 1.0
        return StateVariation(dx, v[..., :, 0].copy(), self.Gt if Gt is None else Gt)


def _slice_geometry(model: LagrangianModel, state: CauchyState,
                    method: str) -> _SliceGeometry:
    x, y, v = state.jet_arrays(method)
    bundle = derivative_bundle_arrays(model, x, y, v)
    raise_first(bundle_errors(model, bundle))
    dv = np.swapaxes(grid_derivative(v, state.n, method), -1, -2)
    return _SliceGeometry(state, method, x, y, v, dv, bundle)


def sode_vector_field(model: LagrangianModel, spec: ConstraintSpec | None,
                      state: CauchyState, method: str = "spectral",
                      drift_tol: float = 1e-6) -> StateVariation:
    """The (projected) second-order vector field evaluated on the state.

    On the whole grid at once: solve the free De Donder-Weyl temporal block
    with the spatial block pinned to the grid derivatives D_i v of the jet,
    then (with a constraint) project the time-horizontal lift through the
    nonholonomic projector.  The returned variation has dx = (1, 0, ...) and
    dy equal to the state's v0 block, which is the second-order condition.
    """
    return _evaluate(model, spec, state, method, drift_tol).field()


def _evaluate(model: LagrangianModel, spec: ConstraintSpec | None,
              state: CauchyState, method: str,
              drift_tol: float = 1e-6) -> _SliceGeometry:
    """The one place the field is assembled: the slice geometry, the free
    temporal block of the De Donder-Weyl solve and, with a constraint, after
    checking that the slice is on the constraint set, that block projected
    through the nonholonomic projector (the time-horizontal lift H_0 has
    Gamma^b_0 = v^b_0), from one constraint pass."""
    geom = _slice_geometry(model, state, method)
    x, y, v = geom.x, geom.y, geom.v
    block, _, errors = solve_ddw(geom.bundle, v, geom.dv)
    raise_first(errors)
    Gfree = block[..., 0, :]
    if spec is None:
        return replace(geom, Gfree=Gfree, Gt=Gfree)
    phi, dphi = spec.evaluate(x, y, v)
    max_phi = float(np.max(np.abs(phi), initial=0.0))
    if max_phi > drift_tol:
        raise DriftError(
            f"state is off the constraint set: max|phi| = {max_phi:.3e} "
            f"exceeds {drift_tol:.1e}"
        )
    dphidv = jet_block(dphi, *v.shape[-2:])
    C = coefficient_arrays(spec, dphidv)
    zeta, errors = solve_zeta_flat(hessian_flat(geom.bundle), C)
    raise_first(errors)
    Lam = multiplier_matrix(compatibility_matrix(zeta, dphidv))
    Gamma2, _ = project_lifts(v[..., :, :1], Gfree[..., :, None, :], dphi, Lam, zeta)
    return replace(geom, Gfree=Gfree, Gt=Gamma2[..., :, 0, :], dphi=dphi, C=C,
                   max_phi=max_phi)


def _tangent_rows(geom: _SliceGeometry) -> np.ndarray:
    """The n embedding tangents T_i = d/du^i + D_i y d/dy + D_i v d/dv as
    dense rows (grid.., n, N).

    The v-block is the slice's D_i v, the operator that pins the field's
    spatial block, so the tangents agree exactly with the section-adapted
    connection.  In pde mode the jet's spatial block already is D_i y.
    """
    state = geom.state
    G, n, m = state.grid_shape, state.n, state.m
    dims = Dims(n, m)
    nx = dims.nx
    if state.mode == "pde":
        dy = geom.v[..., 1:]
    else:
        dy = _section_derivatives(state, geom.method)
    T = np.zeros(G + (n, dims.N))
    T[..., :, 1:nx] = np.eye(n)
    T[..., :, nx : nx + m] = np.swapaxes(dy, -1, -2)
    T[..., :, nx + m :] = np.moveaxis(geom.dv, -2, -3).reshape(G + (n, m * nx))
    return T


def _with_tangents(T: np.ndarray, *vecs) -> np.ndarray:
    """The tuples (vecs..., T_1..T_n) as rows (lead.., grid.., len(vecs)+n, N),
    for dense vecs (.., grid.., N) whose leading axes broadcast."""
    lead = np.broadcast_shapes(T.shape[:-2], *(w.shape[:-1] for w in vecs))
    rows = [np.broadcast_to(w[..., None, :], lead + (1, T.shape[-1])) for w in vecs]
    return np.concatenate(rows + [np.broadcast_to(T, lead + T.shape[-2:])], axis=-2)


def _omega_tilde(geom: _SliceGeometry, T: np.ndarray, W: np.ndarray,
                 Wp: np.ndarray) -> np.ndarray:
    """Omega-tilde_L(W, W'), the grid mean of Omega_L(W', W, T_1..T_n), for
    dense W and W' (lead.., grid.., N) whose leading axes broadcast: one
    ``omega_eval_batch`` call, returning the leading shape."""
    vals = omega_eval_batch(geom.bundle, geom.v, _with_tangents(T, Wp, W))
    lead = vals.shape[: vals.ndim - len(geom.state.grid_shape)]
    return np.mean(vals.reshape(lead + (-1,)), axis=-1)


def _stacked(variations) -> np.ndarray:
    """The variations as one dense array (R, grid.., N)."""
    return np.stack([W.dense() for W in variations])


def free_sode_omega_values(model: LagrangianModel, state: CauchyState,
                           variations, method: str = "spectral") -> np.ndarray:
    """i_Gamma Omega-tilde_L on a list of variations for the free field.

    Vanishes (to quadrature/solver accuracy) when Gamma comes from a
    connection solving the free De Donder-Weyl equation along the slice.
    """
    geom = _evaluate(model, None, state, method)
    return _omega_tilde(geom, _tangent_rows(geom), geom.field().dense(), _stacked(variations))


def constraint_ansatz_fit(model: LagrangianModel, spec: ConstraintSpec,
                          state: CauchyState, variations,
                          method: str = "spectral") -> dict:
    """Fit i_{P Gamma} Omega-tilde - i_Gamma Omega-tilde by a grid-sampled
    section of the induced constraint codistribution.

    The ansatz has one coefficient per constraint per grid point,
    alpha-tilde(W) = mean_j c_alpha(u_j) Phi_alpha(W(u_j), T_1..T_n(u_j));
    returns the least-squares coefficients and the worst-case fit residual.
    """
    geom = _evaluate(model, spec, state, method)
    T = _tangent_rows(geom)
    Ws = _stacked(variations)
    # Omega-tilde is linear in the field, and P Gamma - Gamma is jet-vertical
    delta = geom.field().dense() - geom.field(geom.Gfree).dense()
    lhs = _omega_tilde(geom, T, delta, Ws)
    G = state.grid_shape
    B = int(np.prod(G))
    M = phi_eval_batch(geom.C, geom.v, _with_tangents(T, Ws)).reshape(len(Ws), B * spec.k) / B
    coeff, *_ = np.linalg.lstsq(M, lhs, rcond=None)
    resid = float(np.max(np.abs(lhs - M @ coeff), initial=0.0))
    return {"residual": resid, "coefficients": coeff.reshape(G + (spec.k,)),
            "values": lhs}


def ftilde_annihilator_rows(coeffs: np.ndarray, v: np.ndarray,
                            T: np.ndarray) -> np.ndarray:
    """Per-point covectors w -> Phi_alpha(w, T_1..T_n), shape (grid.., k, N),
    from the constraint coefficients (grid.., k, n+1, m), the jet v and the
    tangent rows T (grid.., n, N): one ``phi_eval_batch`` call over the N
    basis vectors.

    A variation annihilating these rows at every grid point annihilates
    every section of the induced codistribution F-tilde.
    """
    G, N = T.shape[:-2], T.shape[-1]
    basis = np.eye(N).reshape((N,) + (1,) * len(G) + (N,))
    return np.moveaxis(phi_eval_batch(coeffs, v, _with_tangents(T, basis)), 0, -1)


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
    geom = _evaluate(model, spec, state, method)
    T = _tangent_rows(geom)
    rows = np.concatenate([geom.dphi, ftilde_annihilator_rows(geom.C, geom.v, T)], axis=-2)
    Ws = _stacked(variations)
    corr = np.einsum("...nr,...r->...n", np.linalg.pinv(rows),
                     np.einsum("...rn,...n->...r", rows, Ws))
    return _omega_tilde(geom, T, geom.field().dense(), Ws - corr)


def _pack(state: CauchyState) -> np.ndarray:
    if state.mode == "pde":
        return np.concatenate([state.y, state.ydot], axis=-1)
    G = state.grid_shape
    return np.concatenate(
        [state.y, state.v0, state.vi.reshape(G + (-1,))], axis=-1
    )


def packed_names(state: CauchyState) -> list[str]:
    m, n = state.m, state.n
    names = [f"y{a + 1}" for a in range(m)]
    if state.mode == "pde":
        return names + [f"ydot{a + 1}" for a in range(m)]
    return (names + [f"v0_{a + 1}" for a in range(m)]
            + [f"v{i + 1}_{a + 1}" for a in range(m) for i in range(n)])


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


def _rhs(state: CauchyState, var: StateVariation) -> np.ndarray:
    """The packed time derivative of the state under the field ``var``."""
    if state.mode == "pde":
        return np.concatenate([state.ydot, var.dv[..., :, 0]], axis=-1)
    G = state.grid_shape
    return np.concatenate(
        [state.v0, var.dv[..., :, 0], var.dv[..., :, 1:].reshape(G + (-1,))],
        axis=-1,
    )


def holonomy_defect(state: CauchyState, method: str = "spectral") -> float:
    """max |vi - D_i y| in fulljet mode (0 by construction in pde mode)."""
    if state.mode == "pde":
        return 0.0
    return float(np.max(np.abs(state.vi - _section_derivatives(state, method)),
                        initial=0.0))


def project_onto_constraint(spec: ConstraintSpec, state: CauchyState,
                            method: str = "spectral") -> CauchyState:
    """Two Newton steps re-projecting the jet block onto phi = 0 (stabilization)."""
    if state.mode != "fulljet":
        raise InvalidArgumentError("stabilization applies to fulljet states")
    x, y, v = state.jet_arrays(method)
    v, _ = newton_onto_constraint(spec, x, y, v, slice(None), 0.0, 2)
    return replace(state, v0=v[..., 0], vi=v[..., 1:])


def initial_state(model: LagrangianModel, spec: ConstraintSpec | None, N: int,
                  amplitude: float, mode: int = 1, velocity: float = 0.0,
                  method: str = "spectral") -> CauchyState:
    """The built-in initial state on N points per axis.  The fluid (``mode``
    is not read): the shear amplitude sin(2 pi u2) along u1 from the identity,
    with its exact spatial jet (J = 1), and v0 = velocity sin(2 pi u3) along
    u1.  An n = 1 model: y = amplitude sin(2 pi mode u), free in ``pde`` mode
    with ydot = velocity, constrained in ``fulljet`` mode with vi = D_u y and
    v0 projected onto phi = 0 by Newton from velocity, jointly to 1e-13."""
    if model.name == "fluid":
        _, u2, u3 = grid_coordinates((N,) * 3)
        y = np.zeros((N, N, N, 3))
        y[..., 0] = amplitude * np.sin(2 * np.pi * u2)
        vi = np.broadcast_to(np.eye(3), (N, N, N, 3, 3)).copy()
        vi[..., 0, 1] += amplitude * 2 * np.pi * np.cos(2 * np.pi * u2)
        v0 = np.zeros((N, N, N, 3))
        v0[..., 0] = velocity * np.sin(2 * np.pi * u3)
        return CauchyState(0.0, y, "fulljet", v0=v0, vi=vi, y_offset="identity")
    u = grid_coordinates((N,))[0]
    y = amplitude * np.sin(2 * np.pi * (mode % N) * u)[:, None] * np.ones(model.dims.m)
    ydot = velocity * np.ones((N, model.dims.m))
    if spec is None:
        return CauchyState(0.0, y, "pde", ydot=ydot)
    state = CauchyState(0.0, y, "fulljet", v0=ydot, vi=grid_derivative(y, 1, method))
    xj, yj, vj = state.jet_arrays(method)
    vj, _ = newton_onto_constraint(spec, xj, yj, vj, slice(0, 1), 1e-13, 50, jointly=True)
    return replace(state, v0=vj[..., 0])


# Explicit Runge-Kutta tableaus (weights b, nodes c) for the stage loop in
# evolve, which takes every one as subdiagonal with a[i][i-1] = c[i], so
# stage i uses only stage i-1 (ks[-1]), and with c[0] = 0, so the first
# stage is the field at the step's start state, which was already evaluated
# when that state was recorded (first same as last).
_BUTCHER = {
    "euler": ([1.0], [0.0]),
    "rk4": ([1 / 6, 1 / 3, 1 / 3, 1 / 6], [0.0, 0.5, 0.5, 1.0]),
}
INTEGRATORS = tuple(_BUTCHER)


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
    defect (fulljet), i_Gamma eta-tilde, and the slice energy, the mean of
    v0 . dL/dv0 - L.  All but the holonomy defect are read from the field's
    own evaluation of the state: max |phi_alpha| from its drift check, the
    energy from its derivative bundle.  That field is the first stage of
    the next step, so a run makes steps x stages + 1 field evaluations and
    no other evaluation of a state.  Only the kept states are held to
    ``drift_tol``: an RK stage state is no state of the run.
    """
    if integrator.lower() not in _BUTCHER:
        raise InvalidArgumentError(f"integrator must be one of {sorted(_BUTCHER)}")
    weights, nodes = _BUTCHER[integrator.lower()]

    state = state0
    states = [state0]
    diags = {"t": [], "max_phi": [], "holonomy": [], "eta": [], "energy": []}

    def record(s: CauchyState) -> StateVariation:
        geom = _evaluate(model, spec, s, method, drift_tol)
        var, v0, b = geom.field(), geom.v[..., :, 0], geom.bundle
        diags["t"].append(s.t)
        diags["max_phi"].append(geom.max_phi)
        diags["holonomy"].append(holonomy_defect(s, method))
        diags["eta"].append(tilde_eta_contract(s, var))
        diags["energy"].append(float(np.mean(
            np.einsum("...a,...a->...", v0, b.dLdv[..., :, 0]) - b.L)))
        return var

    var = record(state)
    for step in range(steps):
        y0 = _pack(state)
        t0 = state.t
        ks = [_rhs(state, var)]
        try:
            for c in nodes[1:]:
                # a stage state that overflows is reported by its evaluation
                with np.errstate(over="ignore", invalid="ignore"):
                    ystage = y0 + dt * c * ks[-1]
                stage_state = _unpack(state, ystage, t0 + c * dt)
                # a stage state is not kept, so only kept states meet drift_tol
                stage = sode_vector_field(model, spec, stage_state, method, np.inf)
                ks.append(_rhs(stage_state, stage))
            with np.errstate(over="ignore", invalid="ignore"):
                ynew = y0 + dt * sum(w * k for w, k in zip(weights, ks))
            if not np.isfinite(ynew).all():
                raise IntegrationError(f"non-finite state after step {step + 1}")
            state = _unpack(state, ynew, t0 + dt)
            if stabilize and spec is not None:
                state = project_onto_constraint(spec, state, method)
            states.append(state)
            var = record(state)
        except EvaluationError as exc:
            raise IntegrationError(
                f"integration blew up at step {step + 1}: {exc}"
            ) from exc
    return EvolutionResult(states, {k: np.asarray(v) for k, v in diags.items()})
