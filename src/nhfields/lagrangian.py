"""Lagrangian models, machine-accurate derivative bundles, and Omega_L.

The (n+2)-form Omega_L is assembled pointwise from its coordinate
expression

    Omega_L = -dL/dy^a  dy^a ^ d^{n+1}x
              - d(dL/dv^a_mu) ^ theta^a ^ d^n x_mu,

where d(dL/dv^a_mu) is the full differential (x-, y- and v-blocks) taken
from the derivative bundle and theta^a are the contact forms.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable

import numpy as np

from . import autodiff as ad
from .exceptions import (
    DimensionMismatchError,
    EvaluationError,
    InvalidArgumentError,
    errors_at,
    raise_first,
)
from .exterior import Form, join_blocks, split_blocks, vector_rows
from .jet import (
    Dims,
    JetPoint,
    contact_covectors,
    contact_pairings,
    dx_minors,
    finite_points,
    seed_inputs,
)


# Bytes of the m(n+1) x m(n+1) v-block of the Hessian over one chunk of the
# derivative bundle: 512 points for the fluid (m(n+1) = 12), so that an 8^3
# grid is one chunk, and 18,432 for the wave.  A regular L has a nonsingular
# v-Hessian, so it depends on every v input and each chunk's result carries
# at least this block.  Most Dual2 temporaries carry the Hessian of a small
# support (1 to 9 of the fluid's 12 directions), so per-call overhead sets
# much of their cost, and larger chunks pay it fewer times: an 8^3 fluid
# bundle takes 1.5-2.2 ms in one 512-point chunk against 2.0-3.1 ms in two
# of 256 (medians of 60 calls).  A binary Dual2 operation allocates only its
# result over the union support (``autodiff``), so one chunk's temporaries
# take 1.9 MiB on a 16^3 fluid jet, under the 3 MiB the bundle memory test
# allows.
_CHUNK_BYTES = 512 * 8 * 12 * 12


def chunk_points(width: int) -> int:
    """The points of a chunk whose width x width blocks of floats take at
    most ``_CHUNK_BYTES``: the bundle's chunk, with width m(n+1)."""
    return max(1, _CHUNK_BYTES // (8 * width**2))


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


@dataclass(frozen=True)
class DerivativeBundle:
    """All partial derivatives of L needed by the field equations.

    Shapes (batch dims allowed in front): L (),  dLdy (m,), dLdv (m, n+1),
    H (m, n+1, m, n+1) with H[a, mu, b, nu] = d2L/dv^a_mu dv^b_nu,
    d2Ldydv (m, m, n+1) with [b, a, mu] = d2L/dy^b dv^a_mu,
    d2Ldxdv (n+1, m, n+1) with [tau, a, mu] = d2L/dx^tau dv^a_mu.
    ``derivative_bundle_arrays`` returns every field read-only, and a block
    that L's support never reaches as a broadcast zero that holds no memory.
    """

    L: np.ndarray
    dLdy: np.ndarray
    dLdv: np.ndarray
    H: np.ndarray
    d2Ldydv: np.ndarray
    d2Ldxdv: np.ndarray

    def __getitem__(self, idx) -> "DerivativeBundle":
        """The bundle indexed by ``idx`` on its leading batch axes: a point,
        a mask, or slices with None, which insert unit axes."""
        return DerivativeBundle(*(getattr(self, f.name)[idx] for f in fields(self)))

    def broadcast(self, count: int) -> "DerivativeBundle":
        """The bundle with ``count`` unit axes after its batch axes, so that
        it broadcasts over that many more axes of the arguments it meets."""
        return self[(slice(None),) * np.ndim(self.L) + (None,) * count]


def bundle_errors(model: "LagrangianModel", bundle: DerivativeBundle) -> dict:
    """The EvaluationError of each batch point whose bundle has a non-finite
    entry, keyed by point index, naming the first such entry, field by
    field, by its index at the point.  Each field is tested once as a
    whole; the points are searched only when one is not finite."""
    if all(np.isfinite(getattr(bundle, f.name)).all() for f in fields(bundle)):
        return {}
    return _point_errors(model, bundle)


def _point_errors(model: "LagrangianModel", bundle: DerivativeBundle) -> dict:
    """``bundle_errors`` searched point by point."""
    finite = np.ones(np.shape(bundle.L), dtype=bool)
    for f in fields(bundle):
        finite &= finite_points(getattr(bundle, f.name), finite.ndim)

    def error(idx):
        for f in fields(bundle):
            bad = np.argwhere(~np.isfinite(np.atleast_1d(getattr(bundle, f.name)[idx])))
            if len(bad):
                return EvaluationError(f"model {model.name!r}: non-finite {f.name} at index "
                                       f"{tuple(int(i) for i in bad[0])}")

    return errors_at(~finite, error)


def derivative_bundle_arrays(model: LagrangianModel, x, y, v) -> DerivativeBundle:
    """Derivative bundle over arrays of jet coordinates (batched).

    Every input is seeded, as the Dual2 direction of its flat jet index, and
    every temporary carries the Hessian of its own support only, so an input
    L never reads costs one seed and nothing else.  The flattened batch runs
    in chunks of ``chunk_points(m(n+1))`` points; each result's runs are
    scattered (``autodiff._put``) into batch-last views of the blocks of
    the bundle it reaches, and entries of inputs L never touches are +0.0.
    A block is allocated once the first chunk that reaches it has returned
    from its model pass, so a one-chunk batch never holds it beside that
    pass's temporaries; a block no chunk reaches is a read-only broadcast
    zero that holds no memory (dLdy, d2Ldydv and d2Ldxdv for the fluid and
    the wave).  Every field is returned read-only.  Inputs whose shapes do
    not match the model raise DimensionMismatchError before the pass;
    non-finite entries are left to ``bundle_errors``, so an overflow in the
    pass is no error.
    """
    dims = model.dims
    m, nx = dims.m, dims.nx
    x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
    batch = v.shape[:-2]
    if (x.shape, y.shape, v.shape) != (batch + (nx,), batch + (m,), batch + (m, nx)):
        raise DimensionMismatchError(
            f"model {model.name!r} takes x, y and v of one batch shape with trailing shapes "
            f"({nx},), ({m},) and ({m}, {nx}), got {x.shape}, {y.shape} and {v.shape}")
    B = int(np.prod(batch))
    x, y, v = x.reshape(B, nx), y.reshape(B, m), v.reshape(B, m, nx)
    blocks = {}
    step = chunk_points(m * nx)
    for lo in range(0, B, step):
        s = slice(lo, lo + step)
        with np.errstate(over="ignore", invalid="ignore"):
            out = model.fn(*seed_inputs(ad.Dual2, x[s], y[s], v[s], dims))
        if not isinstance(out, ad.Dual2):
            raise EvaluationError(f"model {model.name!r} did not stay in dual arithmetic")
        if "L" not in blocks:  # once the first pass has freed its temporaries
            blocks["L"] = np.empty(B)
        blocks["L"][s] = out.val
        for name, src, place, shape in _scatter_plan(out.idx, nx, m):
            if name not in blocks:  # zeros where no earlier chunk reached it
                blocks[name] = np.zeros((B,) + shape)
            part = (out.grad if len(shape) == 1 else out.hess)[src]
            ad._put(np.moveaxis(blocks[name][s], 0, -1), place, part)
    shapes = {"L": (), "dLdy": (m,), "dLdv": (m, nx), "H": (m, nx, m, nx),
              "d2Ldydv": (m, m, nx), "d2Ldxdv": (nx, m, nx)}
    arrays = {name: np.broadcast_to(0.0, batch + shape) for name, shape in shapes.items()}
    for name, block in blocks.items():
        block.flags.writeable = False
        arrays[name] = block.reshape(batch + shapes[name])
    return DerivativeBundle(**arrays)


@cache
def _scatter_plan(idx: tuple, nx: int, m: int) -> tuple:
    """How a model result over the support ``idx`` scatters into the
    bundle: for each field past L whose block it reaches, (field, the part
    of the result's grad or Hessian it takes, that part's runs in the
    block's rows (and v columns) as ``autodiff._put`` takes them, the
    block's shape).  The fields of the Hessian take the v inputs as
    columns."""
    N = nx + m + m * nx
    v0 = bisect.bisect_left(idx, nx + m)  # idx[v0:] are the v inputs
    cols = ad._placement(idx[v0:], tuple(range(nx + m, N)))
    plan = []
    for name, r0, r1 in (("dLdy", nx, nx + m), ("dLdv", nx + m, N), ("H", nx + m, N),
                         ("d2Ldydv", nx, nx + m), ("d2Ldxdv", 0, nx)):
        a, b = bisect.bisect_left(idx, r0), bisect.bisect_left(idx, r1)
        if a == b:
            continue
        place = ad._placement(idx[a:b], tuple(range(r0, r1)))
        if name in ("dLdy", "dLdv"):
            plan.append((name, slice(a, b), place, (r1 - r0,)))
        elif v0 < len(idx):
            plan.append((name, (slice(a, b), slice(v0, None)), ad._block(place, cols),
                         (r1 - r0, m * nx)))
    return tuple(plan)


def derivative_bundle(model: LagrangianModel, p: JetPoint) -> DerivativeBundle:
    """Derivative bundle at a single jet point."""
    if (p.n, p.m) != (model.dims.n, model.dims.m):
        raise DimensionMismatchError(
            f"point dims (n={p.n}, m={p.m}) do not match model {model.dims}"
        )
    bundle = derivative_bundle_arrays(model, p.x, p.y, p.v)
    raise_first(bundle_errors(model, bundle))
    return bundle


def hessian_flat(bundle: DerivativeBundle) -> np.ndarray:
    """H as a (m(n+1), m(n+1)) matrix in the (a-major, mu-minor) flattening."""
    m, nx = bundle.dLdv.shape[-2:]
    return bundle.H.reshape(bundle.H.shape[: -4] + (m * nx, m * nx))


def regularity_check(bundle: DerivativeBundle) -> dict:
    """Determinant and condition number of the Hessian, per batch point of
    the bundle; non-regularity is a result, not an error.  A point is
    regular when the condition number is finite and below ``REGULAR_COND``.
    The determinant is reported only: it carries the units of L (it scales
    as rho^12 for the fluid)."""
    Hf = hessian_flat(bundle)
    svals = np.linalg.svd(Hf, compute_uv=False)
    smin = svals[..., -1]
    cond = np.divide(svals[..., 0], smin, out=np.full(smin.shape, np.inf), where=smin > 0)
    return {"det": np.linalg.det(Hf)[()], "cond": cond[()],
            "regular": (cond < REGULAR_COND)[()]}


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
            diff = join_blocks(bundle.d2Ldxdv[:, a, mu], bundle.d2Ldydv[:, a, mu],
                               bundle.H[:, :, a, mu])
            rest = [nu for nu in range(nx) if nu != mu]
            terms.append((-((-1.0) ** mu), [diff, theta[a]] + rest))
    if not terms:
        # L with vanishing derivatives: represent the zero form explicitly
        terms.append((0.0, [dims.iy(0)] + vol))
    return Form.from_terms(terms, dim=dims.N)


@cache
def _pair_minor_table(nx: int):
    """Gather tables of the antisymmetric (n+1, n+2, n+2) array
    S[mu, j, k] = (-1)^(mu+j+k+1) M_n(rows != mu, cols != {j, k}) for j < k,
    S[mu, k, j] = -S[mu, j, k], over the n x n minors M_n of the (n+1) x (n+2)
    dx block: (row index, column index, sign) into ``jet._minors``' order."""
    q = nx + 1
    cols = {s: i for i, s in enumerate(itertools.combinations(range(q), q - 2))}
    col = np.zeros((q, q), dtype=int)
    sign = np.zeros((nx, q, q))
    for j, k in itertools.permutations(range(q), 2):
        col[j, k] = cols[tuple(c for c in range(q) if c not in (j, k))]
        sign[:, j, k] = (-1.0) ** (j + k + 1) * (1.0 if j < k else -1.0)
    sign *= ((-1.0) ** np.arange(nx))[:, None, None]
    row = nx - 1 - np.arange(nx)  # the subset of rows != mu, lexicographically
    tables = row[:, None, None], col, sign
    for table in tables:  # cached, so shared by every caller
        table.flags.writeable = False
    return tables


def omega_eval_batch(bundle: DerivativeBundle, v: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Evaluate Omega_L on one (n+2)-tuple of vectors per batch point.

    v is (..., m, n+1) and vecs (..., n+2, N); their leading shapes and the
    bundle's batch shape broadcast together, so a pointwise bundle serves a
    whole batch of tuples.  Returns the broadcast shape.  Same terms as
    :func:`omega_form`, the term-list oracle it is tested against; see
    ``omega_from_pairings`` for the expansion.
    """
    v = np.asarray(v, dtype=float)
    vecs = np.asarray(vecs, dtype=float)
    m, nx = v.shape[-2:]
    dims = Dims(nx - 1, m)
    if vecs.shape[-2:] != (nx + 1, dims.N):
        raise DimensionMismatchError(
            f"Omega_L takes n+2 = {nx + 1} vectors of length {dims.N}, got shape {vecs.shape}"
        )
    return omega_from_pairings(bundle, omega_pairings(bundle, v, vecs),
                               omega_expansion(dx_minors(vecs, nx, nx)))


def omega_pairings(bundle: DerivativeBundle, v: np.ndarray, vecs: np.ndarray):
    """The rows of Omega_L's determinants other than the dx rows, paired
    with each vector w_j of the tuples vecs (..., n+2, N), column j:
    dy^a(w_j) (..., n+2, m), theta^a(w_j) (..., m, n+2) and
    r^a_mu(w_j) = d(dL/dv^a_mu)(w_j) (..., m(n+1), n+2), over the leading
    shape of bundle, v and vecs broadcast."""
    m, nx = v.shape[-2:]
    own = np.shape(bundle.L)
    D = np.concatenate([bundle.d2Ldxdv.reshape(own + (nx, m * nx)),
                        bundle.d2Ldydv.reshape(own + (m, m * nx)),
                        bundle.H.reshape(own + (m * nx, m * nx))], axis=-2)
    return (split_blocks(vecs, m, nx)[1], contact_pairings(v, vecs)[0],
            np.swapaxes(D, -1, -2) @ np.swapaxes(vecs, -1, -2))


def omega_from_pairings(bundle: DerivativeBundle, pairings, expansion) -> np.ndarray:
    """Omega_L on tuples from their ``omega_pairings`` and the
    ``omega_expansion`` of their dx blocks, whose batch axes broadcast
    against the leading shape.

    Every term is a determinant whose last rows are dx rows, so both terms
    are expanded over the minors of the dx block X (n+1, n+2): term 1 along
    its dy row, over the (n+1)-minors of X, and term 2 along its two rows
    d(dL/dv^a_mu) and theta^a, over the n-minors of X without row mu.
    """
    ys, theta, r = pairings
    cof, S = expansion
    q, m = ys.shape[-2:]
    nx = q - 1
    # term 1: -dL/dy^a dy^a ^ dx^0 ^ ... ^ dx^n
    total = -np.einsum("...ja,...a,...j->...", ys, bundle.dLdy, cof)
    # term 2: -d(dL/dv^a_mu) ^ theta^a ^ d^n x_mu, which is
    # -sum_{mu,j,k} r^a_{mu j} S[mu, j, k] theta^a_k
    rS = r.reshape(r.shape[:-2] + (m, nx * q)) @ S.reshape(S.shape[:-3] + (nx * q, q))
    return total - np.einsum("...ak,...ak->...", rS, theta)


def omega_expansion(minors):
    """The factors Omega_L's terms are expanded over, from the levels n and
    n+1 of ``dx_minors`` of the dx blocks X (n+1, n+2) of tuples: the
    cofactors (-1)^j M_{n+1}(cols != j) of a row on top of X (..., n+2),
    and S (..., n+1, n+2, n+2), S[mu, j, k] = (-1)^(mu+j+k+1)
    M_n(rows != mu, cols != {j, k}) for j < k, antisymmetric in j, k."""
    minors_n, minors_nx = minors[-2:]
    q = minors_nx.shape[1]
    cof = np.moveaxis(minors_nx[0, ::-1], 0, -1) * (-1.0) ** np.arange(q)
    row, col, sign = _pair_minor_table(q - 1)
    S = np.moveaxis(minors_n, (0, 1), (-2, -1))[..., row, col]
    S *= sign
    return cof, S


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
