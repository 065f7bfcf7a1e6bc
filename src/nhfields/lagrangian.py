"""Lagrangian models, machine-accurate derivative bundles, and Omega_L.

The (n+2)-form Omega_L is assembled pointwise from its coordinate
expression

    Omega_L = -dL/dy^a  dy^a ^ d^{n+1}x
              - d(dL/dv^a_mu) ^ theta^a ^ d^n x_mu,

where d(dL/dv^a_mu) is the full differential (x-, y- and v-blocks) taken
from the derivative bundle and theta^a are the contact forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import autodiff as ad
from .exceptions import DimensionMismatchError, EvaluationError, InvalidArgumentError
from .exterior import Form, vector_rows
from .jet import Dims, JetPoint, contact_covectors, contact_pairings, seed_inputs


# Bytes of a full d x d Hessian over one chunk of the derivative bundle: 256
# points at d = 12 active inputs (the fluid).  Most Dual2 temporaries carry
# the Hessian of a small support (1 to 9 of the 12 directions), so per-call
# overhead, not memory traffic, sets their cost, and larger chunks pay it
# fewer times.  On an 8^3 fluid evolve, 256 points ran about 1.6x the steps/s
# of 64 at the same peak RSS; 512 points (the whole grid) added 1.8 MB.
_CHUNK_BYTES = 256 * 8 * 12 * 12

# the generic points at which LagrangianModel.active_inputs probes L
_PROBE_SEED = 2005
_PROBE_POINTS = 3

# a point is regular when its Hessian's condition number is below this
REGULAR_COND = 1e12


@dataclass(frozen=True)
class LagrangianModel:
    """A Lagrangian L(x, y, v) over generic scalars.

    ``fn(x, y, v)`` receives x as a list of n+1 scalars, y as a list of m
    scalars and v as a nested (m)(n+1) list; entries are floats, arrays, or
    dual numbers, so forward-mode differentiation extracts exact first and
    second derivatives.
    """

    name: str
    dims: Dims
    fn: Callable

    def __call__(self, p: JetPoint) -> float:
        return float(
            np.asarray(self.fn(list(p.x), list(p.y), [list(row) for row in p.v]))
        )

    @cached_property
    def active_inputs(self) -> np.ndarray:
        """Flat jet indices (x, y, v order, as in ``Dims``) of the inputs L
        depends on; the derivative bundles seed only these.

        A first-order probe at fixed-seed generic points keeps every index
        whose gradient entry is nonzero at one of them.  L is assumed
        analytic in its inputs, so an input the probe drops has an
        identically zero derivative.  Computed once per model instance.
        """
        dims = self.dims
        pts = np.random.default_rng(_PROBE_SEED).uniform(0.5, 1.5, (_PROBE_POINTS, dims.N))
        x, y = pts[:, : dims.nx], pts[:, dims.nx : dims.nx + dims.m]
        v = pts[:, dims.nx + dims.m :].reshape(_PROBE_POINTS, dims.m, dims.nx)
        with np.errstate(all="ignore"):  # a NaN entry counts as nonzero
            out = self.fn(*seed_inputs(ad.Dual, x, y, v, dims, range(dims.N)))
        if not isinstance(out, ad.Dual):
            raise EvaluationError(f"model {self.name!r} did not stay in dual arithmetic")
        active = np.flatnonzero((out.grad != 0).reshape(-1, dims.N).any(axis=0))
        if active.size == 0:
            raise EvaluationError(f"model {self.name!r} depends on none of its inputs")
        return active


@dataclass(frozen=True)
class DerivativeBundle:
    """All partial derivatives of L needed by the field equations.

    Shapes (batch dims allowed in front): L (),  dLdy (m,), dLdv (m, n+1),
    H (m, n+1, m, n+1) with H[a, mu, b, nu] = d2L/dv^a_mu dv^b_nu,
    d2Ldydv (m, m, n+1) with [b, a, mu] = d2L/dy^b dv^a_mu,
    d2Ldxdv (n+1, m, n+1) with [tau, a, mu] = d2L/dx^tau dv^a_mu.
    """

    L: np.ndarray
    dLdy: np.ndarray
    dLdv: np.ndarray
    H: np.ndarray
    d2Ldydv: np.ndarray
    d2Ldxdv: np.ndarray

    @property
    def dims(self) -> Dims:
        m, nx = self.dLdv.shape[-2:]
        return Dims(nx - 1, m)


def derivative_bundle_arrays(model: LagrangianModel, x, y, v) -> DerivativeBundle:
    """Derivative bundle over arrays of jet coordinates (batched).

    Only the model's active inputs are seeded, as Dual2 directions
    0..d-1 with d = len(active_inputs), and every temporary carries the
    Hessian of its own support only.  The flattened batch runs in chunks
    whose full d x d Hessian is at most ``_CHUNK_BYTES``; each result is read
    back over all d directions (``Dual2.dense``) into the preallocated
    outputs, and entries of inactive inputs are exact zeros.
    """
    dims = model.dims
    m, nx = dims.m, dims.nx
    v = np.asarray(v, dtype=float)
    batch = v.shape[:-2]
    B = int(np.prod(batch))
    x = np.asarray(x, dtype=float).reshape(B, nx)
    y = np.asarray(y, dtype=float).reshape(B, m)
    v = v.reshape(B, m, nx)
    act = model.active_inputs
    d = act.size
    vcol = np.flatnonzero(act >= nx + m)  # dual directions that are v inputs
    vidx = act[vcol] - (nx + m)  # and their flat (a, mu) indices
    L = np.empty(B)
    grad = np.zeros((B, dims.N))
    hv = np.zeros((B, dims.N, m * nx))  # the v-columns of the Hessian
    step = max(1, _CHUNK_BYTES // (8 * d * d))
    for lo in range(0, B, step):
        s = slice(lo, lo + step)
        out = model.fn(*seed_inputs(ad.Dual2, x[s], y[s], v[s], dims, act))
        if not isinstance(out, ad.Dual2):
            raise EvaluationError(f"model {model.name!r} did not stay in dual arithmetic")
        L[s] = out.val
        g, h = out.dense(d)
        grad[s, act] = g
        hv[s, act[:, None], vidx] = h[..., vcol]
    bundle = DerivativeBundle(
        L.reshape(batch),
        grad[:, nx : nx + m].reshape(batch + (m,)),
        grad[:, nx + m :].reshape(batch + (m, nx)),
        hv[:, nx + m :].reshape(batch + (m, nx, m, nx)),
        hv[:, nx : nx + m].reshape(batch + (m, m, nx)),
        hv[:, :nx].reshape(batch + (nx, m, nx)),
    )
    for name in ("L", "dLdy", "dLdv", "H", "d2Ldydv", "d2Ldxdv"):
        arr = getattr(bundle, name)
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(np.atleast_1d(arr)))[0]
            raise EvaluationError(
                f"model {model.name!r}: non-finite {name} at index "
                f"{tuple(int(i) for i in bad)}"
            )
    return bundle


def derivative_bundle(model: LagrangianModel, p: JetPoint) -> DerivativeBundle:
    """Derivative bundle at a single jet point."""
    if (p.n, p.m) != (model.dims.n, model.dims.m):
        raise DimensionMismatchError(
            f"point dims (n={p.n}, m={p.m}) do not match model {model.dims}"
        )
    return derivative_bundle_arrays(model, p.x, p.y, p.v)


def hessian_flat(bundle: DerivativeBundle) -> np.ndarray:
    """H as a (m(n+1), m(n+1)) matrix in the (a-major, mu-minor) flattening."""
    m, nx = bundle.dLdv.shape[-2:]
    return bundle.H.reshape(bundle.H.shape[: -4] + (m * nx, m * nx))


def regularity_check(bundle: DerivativeBundle) -> dict:
    """Determinant and condition number of the Hessian; non-regularity is a
    result, not an error.  The point is regular when the condition number is
    finite and below ``REGULAR_COND``.  The determinant is reported only: it
    carries the units of L (it scales as rho^12 for the fluid)."""
    Hf = hessian_flat(bundle)
    svals = np.linalg.svd(Hf, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    return {"det": float(np.linalg.det(Hf)), "cond": cond, "regular": cond < REGULAR_COND}


def omega_form(bundle: DerivativeBundle, p: JetPoint) -> Form:
    """Omega_L at p as an explicit (n+2)-form term list."""
    m, nx = p.v.shape
    n = nx - 1
    dims = Dims(n, m)
    theta = contact_covectors(p)
    terms = []
    # term 1: -dL/dy^a dy^a ^ d^{n+1}x
    vol = list(range(nx))
    for a in range(m):
        coeff = -float(bundle.dLdy[a])
        if coeff != 0.0:
            terms.append((coeff, [dims.iy(a)] + vol))
    # term 2: -d(dL/dv^a_mu) ^ theta^a ^ d^n x_mu, with
    # d^n x_mu = (-1)^mu dx^0 ^ .. (omit mu) .. ^ dx^n
    for a in range(m):
        for mu in range(nx):
            diff = np.zeros(dims.N)
            diff[:nx] = bundle.d2Ldxdv[:, a, mu]
            for b in range(m):
                diff[dims.iy(b)] = bundle.d2Ldydv[b, a, mu]
            diff[nx + m :] = bundle.H[:, :, a, mu].reshape(-1)
            rest = [nu for nu in range(nx) if nu != mu]
            terms.append((-((-1.0) ** mu), [diff, theta[a]] + rest))
    if not terms:
        # L with vanishing derivatives: represent the zero form explicitly
        terms.append((0.0, [dims.iy(0)] + vol))
    return Form.from_terms(terms, dim=dims.N)


def omega_eval_batch(bundle: DerivativeBundle, v: np.ndarray,
                     vecs: np.ndarray) -> np.ndarray:
    """Evaluate Omega_L on one (n+2)-tuple of vectors per batch point.

    v is (..., m, n+1) and vecs (..., n+2, N); their leading shapes and the
    bundle's batch shape broadcast together, so a pointwise bundle serves a
    whole batch of tuples.  Returns the broadcast shape.  Same terms as
    :func:`omega_form`, the term-list oracle it is tested against.
    """
    v = np.asarray(v, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    m, nx = v.shape[-2:]
    dims = Dims(nx - 1, m)
    q = nx + 1
    if vecs.shape[-2:] != (q, dims.N):
        raise DimensionMismatchError(
            f"Omega_L takes n+2 = {q} vectors of length {dims.N}, got shape {vecs.shape}"
        )
    theta_pair, x_rows = contact_pairings(v, vecs)
    own = np.shape(bundle.L)
    batch = np.broadcast_shapes(own, theta_pair.shape[:-2])
    total = np.zeros(batch)
    A = np.empty(batch + (q, q))
    # term 1: -dL/dy^a dy^a ^ dx^0 ^ ... ^ dx^n
    for a in range(m):
        A[..., 0, :] = vecs[..., dims.iy(a)]
        A[..., 1:, :] = x_rows
        total -= bundle.dLdy[..., a] * np.linalg.det(A)
    # term 2: -d(dL/dv^a_mu) ^ theta^a ^ d^n x_mu
    for a in range(m):
        for mu in range(nx):
            diff = np.zeros(own + (dims.N,))
            diff[..., :nx] = bundle.d2Ldxdv[..., :, a, mu]
            diff[..., nx : nx + m] = bundle.d2Ldydv[..., :, a, mu]
            diff[..., nx + m :] = bundle.H[..., :, :, a, mu].reshape(own + (m * nx,))
            A[..., 0, :] = np.einsum("...n,...qn->...q", diff, vecs)
            A[..., 1, :] = theta_pair[..., a, :]
            A[..., 2:, :] = np.delete(x_rows, mu, axis=-2)
            total -= ((-1.0) ** mu) * np.linalg.det(A)
    return total


def omega_L_eval(model: LagrangianModel, p: JetPoint, vecs) -> float:
    """Evaluate Omega_L(p) on exactly n+2 tangent vectors: a batch of one of
    :func:`omega_eval_batch`."""
    return float(omega_eval_batch(derivative_bundle(model, p), p.v,
                                  vector_rows(vecs, model.dims.N)))


# ---------------------------------------------------------------------------
# built-in model registry

def _wave_model() -> LagrangianModel:
    """1+1 wave Lagrangian L = (v_0^2 - v_1^2)/2."""

    def fn(x, y, v):
        return 0.5 * (v[0][0] * v[0][0] - v[0][1] * v[0][1])

    return LagrangianModel("wave", Dims(1, 1), fn)


def _quadratic_model(n=1, m=1, coupling=0.0) -> LagrangianModel:
    """L = sum v^2 / 2 + coupling * y^a v^a_0, any (n, m)."""
    for key, val in (("n", n), ("m", m)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < 1:
            raise InvalidArgumentError(
                f"quadratic model {key} must be an integer >= 1, got {val!r}")

    def fn(x, y, v):
        total = 0.0
        for a in range(m):
            for mu in range(n + 1):
                total = total + 0.5 * (v[a][mu] * v[a][mu])
            if coupling:
                total = total + coupling * (y[a] * v[a][0])
        return total

    return LagrangianModel("quadratic", Dims(int(n), int(m)), fn)


def _fluid_model(**params) -> LagrangianModel:
    from .fluid import FluidParams, fluid_lagrangian

    return fluid_lagrangian(FluidParams(**params))


MODELS: dict[str, Callable] = {
    "wave": _wave_model,
    "quadratic": _quadratic_model,
    "fluid": _fluid_model,
}


def make_model(name: str, params=None) -> LagrangianModel:
    """A registered model; a parameter name its builder does not take
    raises TypeError."""
    if name not in MODELS:
        raise InvalidArgumentError(
            f"unknown model {name!r}; available: {sorted(MODELS)}"
        )
    return MODELS[name](**(params or {}))
