"""Shared independent oracles for the test suite.

Everything here is deliberately naive (cofactor expansions, direct
insert-and-evaluate contractions, central finite differences) so the tested
code paths are checked against arithmetic that shares nothing with them.
"""

import dataclasses
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from nhfields import autodiff as ad
from nhfields.constraint import ConstraintSpec, constraint_forms, make_constraint
from nhfields.exterior import Form, TangentVector
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import DerivativeBundle, LagrangianModel, make_model, omega_form


def cofactor_det(matrix) -> float:
    """Recursive cofactor expansion along the first row."""
    matrix = np.asarray(matrix, dtype=float)
    size = matrix.shape[0]
    if size == 1:
        return float(matrix[0, 0])
    total = 0.0
    for j in range(size):
        minor = np.delete(np.delete(matrix, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * matrix[0, j] * cofactor_det(minor)
    return total


def wedge_eval_oracle(factors, vectors) -> float:
    """Wedge monomial evaluation via the cofactor determinant."""
    rows = np.asarray([np.asarray(f, dtype=float) for f in factors])
    cols = np.column_stack([v.components for v in vectors])
    return cofactor_det(rows @ cols)


def random_vector(rng, n, m) -> TangentVector:
    return TangentVector(
        rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, m), rng.uniform(-1, 1, (m, n + 1))
    )


def random_point(rng, n, m) -> JetPoint:
    return JetPoint(
        rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, m), rng.uniform(-1, 1, (m, n + 1))
    )


def fd_hessian(f, x0, step=1e-5) -> np.ndarray:
    """Central-difference Hessian of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    d = len(x0)
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            if i == j:
                xp, xm = x0.copy(), x0.copy()
                xp[i] += step
                xm[i] -= step
                H[i, i] = (f(xp) - 2.0 * f(x0) + f(xm)) / step**2
            else:
                xpp, xpm, xmp, xmm = (x0.copy() for _ in range(4))
                xpp[[i, j]] += step
                xmm[[i, j]] -= step
                xpm[i] += step
                xpm[j] -= step
                xmp[i] -= step
                xmp[j] += step
                H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * step**2)
    return H


def fd_gradient(f, x0, step=1e-6) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros(len(x0))
    for i in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


def wave_on_constraint_point(rng, speed=2.0) -> JetPoint:
    """Random wave-scenario point with v_0 = speed * v_1."""
    v1 = rng.uniform(-1, 1)
    return JetPoint(
        rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1),
        np.array([[speed * v1, v1]]),
    )


# (name, params) of the models the form kernels are compared with their
# term-list oracles on: random quadratic models with a nonzero coupling, so
# that the dy-blocks of Omega_L count, the wave and the fluid
KERNEL_MODELS = st.one_of(
    st.tuples(st.just("quadratic"), st.fixed_dictionaries({
        "n": st.integers(1, 3), "m": st.integers(1, 3),
        "coupling": st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)})),
    st.sampled_from([("wave", {}), ("fluid", {})]),
)


def kernel_point(model, rng) -> JetPoint:
    """A random point of the model's jet space; a well-conditioned one on
    the incompressibility set for the fluid."""
    if model.name == "fluid":
        return fluid_constraint_point(rng)
    return random_point(rng, model.dims.n, model.dims.m)


def bundle_at(bundle, i) -> DerivativeBundle:
    """Batch point i of a batched derivative bundle."""
    return DerivativeBundle(*(getattr(bundle, f.name)[i]
                              for f in dataclasses.fields(bundle)))


def writable_copy(bundle) -> DerivativeBundle:
    """The bundle with a writable copy of each field, which a test may
    change in place; ``derivative_bundle_arrays`` returns read-only ones."""
    return DerivativeBundle(*(np.array(getattr(bundle, f.name))
                              for f in dataclasses.fields(bundle)))


def oracle_scenario(name, rng):
    """(model, constraint spec, point on its constraint set) of the scenarios
    the pointwise checks are compared with their term-list oracles on:
    the wave, the fluid, and two coupled fields with one constraint each
    (k = 2)."""
    if name == "wave":
        return (make_model("wave"), make_constraint("linear-transport", {"speed": 2.0}),
                wave_on_constraint_point(rng))
    if name == "fluid":
        return (make_model("fluid", {"kappa": 1.0, "beta": 1.0}),
                make_constraint("incompressibility"), fluid_constraint_point(rng))
    spec = ConstraintSpec(Dims(1, 2, 2), [lambda x, y, v: v[0][0] - 2.0 * v[0][1],
                                          lambda x, y, v: v[1][0] + 0.5 * v[1][1]])
    v = rng.uniform(-1, 1, (2, 2))
    v[:, 0] = [2.0 * v[0, 1], -0.5 * v[1, 1]]
    return (make_model("quadratic", {"n": 1, "m": 2, "coupling": 0.7}), spec,
            JetPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), v))


def random_det_one_spatial(rng, scale=0.3):
    """Random 3x3 spatial block with unit determinant and mild conditioning."""
    while True:
        M = np.eye(3) + scale * rng.uniform(-1, 1, (3, 3))
        d = np.linalg.det(M)
        if abs(d) > 0.3 and np.linalg.cond(M) < 20:
            return M / np.cbrt(d)


def fluid_constraint_point(rng) -> JetPoint:
    v = np.zeros((3, 4))
    v[:, 0] = 0.3 * rng.uniform(-1, 1, 3)
    v[:, 1:] = random_det_one_spatial(rng)
    return JetPoint(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), v)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn`` after a first,
    untraced call has filled the caches it uses."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bits_up_to_zero_sign(a, b):
    """Bitwise equal, except that an exact zero may carry the other sign."""
    a, b = np.broadcast_arrays(a, b)
    return bool(np.all((a.view(np.int64) == b.view(np.int64)) | ((a == 0) & (b == 0))))


class DenseDual(ad.Dual):
    """Reference first-order dual: the dense arithmetic over all d seed
    directions, with a full (..., d) gradient in every temporary.

    A subclass only so that the generic helpers (``ad.sin``, ``ad.det``, ...)
    dispatch to its own ``_chain``; every operation is its own.
    """

    __slots__ = ()

    def __init__(self, val, grad):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def seed(cls, values, d, index=None):
        values = np.asarray(values, dtype=float)
        grad = np.zeros(values.shape + (d,))
        if index is not None:
            grad[..., index] = 1.0
        return cls(values, grad)

    def _lift(self, other):
        if isinstance(other, DenseDual):
            return other
        return DenseDual(np.asarray(other, dtype=float), np.zeros_like(self.grad))

    def __add__(self, o):
        o = self._lift(o)
        return DenseDual(self.val + o.val, self.grad + o.grad)

    __radd__ = __add__

    def __neg__(self):
        return DenseDual(-self.val, -self.grad)

    def __sub__(self, o):
        o = self._lift(o)
        return DenseDual(self.val - o.val, self.grad - o.grad)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return DenseDual(
            self.val * o.val,
            self.val[..., None] * o.grad + o.val[..., None] * self.grad,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        inv = 1.0 / o.val
        val = self.val / o.val
        return DenseDual(val, inv[..., None] * (self.grad - val[..., None] * o.grad))

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __pow__(self, p):
        return self._chain(self.val**p, p * self.val ** (p - 1))

    def _chain(self, f, df):
        return DenseDual(f, df[..., None] * self.grad)


class DenseDual2(ad.Dual2):
    """Reference second-order dual: the dense arithmetic over all d seed
    directions, with a full (d, d) Hessian in every temporary.

    A subclass only so that the generic helpers (``ad.sin``, ``ad.det``, ...)
    dispatch to its own ``_chain``; every operation is its own.
    """

    __slots__ = ()

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @classmethod
    def seed(cls, values, d, index=None):
        values = np.asarray(values, dtype=float)
        grad = np.zeros(values.shape + (d,))
        if index is not None:
            grad[..., index] = 1.0
        return cls(values, grad, np.zeros(values.shape + (d, d)))

    def _lift(self, other):
        if isinstance(other, DenseDual2):
            return other
        return DenseDual2(
            np.asarray(other, dtype=float),
            np.zeros_like(self.grad),
            np.zeros_like(self.hess),
        )

    def __add__(self, o):
        o = self._lift(o)
        return DenseDual2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return DenseDual2(-self.val, -self.grad, -self.hess)

    def __sub__(self, o):
        o = self._lift(o)
        return DenseDual2(self.val - o.val, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        if not isinstance(o, DenseDual2):
            o = np.asarray(o, dtype=float)
            return DenseDual2(
                self.val * o,
                self.grad * o[..., None],
                self.hess * o[..., None, None],
            )
        cross = self.grad[..., :, None] * o.grad[..., None, :]
        return DenseDual2(
            self.val * o.val,
            self.val[..., None] * o.grad + o.val[..., None] * self.grad,
            self.val[..., None, None] * o.hess
            + o.val[..., None, None] * self.hess
            + cross
            + np.swapaxes(cross, -1, -2),
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, DenseDual2):
            return self * o._chain(1.0 / o.val, -1.0 / o.val**2, 2.0 / o.val**3)
        return self * (1.0 / np.asarray(o, dtype=float))

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __pow__(self, p):
        return self._chain(
            self.val**p,
            p * self.val ** (p - 1),
            p * (p - 1) * self.val ** (p - 2),
        )

    def _chain(self, f, df, d2f):
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        return DenseDual2(
            f,
            df[..., None] * self.grad,
            df[..., None, None] * self.hess + d2f[..., None, None] * outer,
        )


def _all_seeded(cls, model, x, y, v):
    """L with every one of the N jet directions seeded."""
    dims = model.dims
    x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
    xs = [cls.seed(x[..., t], dims.N, dims.ix(t)) for t in range(dims.nx)]
    ys = [cls.seed(y[..., a], dims.N, dims.iy(a)) for a in range(dims.m)]
    vs = [[cls.seed(v[..., a, mu], dims.N, dims.iv(a, mu)) for mu in range(dims.nx)]
          for a in range(dims.m)]
    return model.fn(xs, ys, vs)


def bundle_from_dense(model, val, grad, hess) -> DerivativeBundle:
    """The bundle fields sliced out of L, its gradient (..., N) and its
    Hessian (..., N, N) over all jet directions."""
    m, nx = model.dims.m, model.dims.nx
    batch = np.shape(val)
    sy, sv = slice(nx, nx + m), slice(nx + m, None)
    return DerivativeBundle(
        val,
        grad[..., sy],
        grad[..., sv].reshape(batch + (m, nx)),
        hess[..., sv, sv].reshape(batch + (m, nx, m, nx)),
        hess[..., sy, sv].reshape(batch + (m, m, nx)),
        hess[..., :nx, sv].reshape(batch + (nx, m, nx)),
    )


def dense_derivative_bundle(model, x, y, v) -> DerivativeBundle:
    """The derivative bundle from one dense reference pass over all N
    directions, with the full N x N Hessian."""
    out = _all_seeded(DenseDual2, model, x, y, v)
    return bundle_from_dense(model, out.val, out.grad, out.hess)


# ---------------------------------------------------------------------------
# the pointwise checks computed on the exterior.Form term lists

def form_check_oracle(bundle, cp, sol, rng, tuples) -> dict:
    """``nh_ddw_residual``'s b, M and fit on the term lists, on the tuples it
    draws from ``rng``: i_h Omega_L inserts h(w_i) slot by slot into
    ``omega_form``, and each column dx^mu ^ Phi_alpha prepends dx^mu to every
    term of ``constraint_forms``."""
    p = cp.p
    m, nx = p.v.shape
    N = nx + m + m * nx
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx + 1, N))
    lifts = np.array([sol.coeffs.horizontal_lift(mu).components for mu in range(nx)])
    omega = omega_form(bundle, p)
    b = -(nx - 1) * omega.eval_batch(vecs)
    for i in range(nx + 1):
        moved = vecs.copy()
        moved[:, i] = vecs[:, i, :nx] @ lifts
        b += omega.eval_batch(moved)
    cols = []
    for phi in constraint_forms(p, cp.coeffs):
        for mu in range(nx):
            front = np.zeros((len(phi.coeffs), 1, N))
            front[..., mu] = 1.0
            cols.append(Form(phi.coeffs, np.concatenate([front, phi.factors], axis=1))
                        .eval_batch(vecs))
    M = np.column_stack(cols) if cols else np.zeros((tuples, 0))
    lam_fit, *_ = np.linalg.lstsq(M, b, rcond=None)
    return {
        "form_residual": float(np.max(np.abs(b - M @ lam_fit), initial=0.0)),
        "lam_fit": lam_fit.reshape(cp.k, nx),
        "lam_gap": float(np.max(np.abs(M @ (sol.multipliers.reshape(-1) - lam_fit)),
                                initial=0.0)),
    }


def zeta_identity_oracle(bundle, coeffs, zb, p, rng, tuples) -> float:
    """``zeta_residual`` on the term lists, on the tuples it draws from
    ``rng``: Form.contract of ``omega_form`` with each zeta_alpha, plus the
    matching ``constraint_forms`` entry."""
    m, nx = p.v.shape
    vecs = rng.uniform(-1.0, 1.0, size=(tuples, nx, nx + m + m * nx))
    omega = omega_form(bundle, p)
    worst = 0.0
    for zeta, phi in zip(zb.zeta, constraint_forms(p, coeffs)):
        contracted = omega.contract(TangentVector(np.zeros(nx), np.zeros(m), zeta))
        vals = contracted.eval_batch(vecs) + phi.eval_batch(vecs)
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def whole_batch_newton(spec, x, y, v, cols, tol, iters):
    """The Newton projection as one batch: every point steps until the
    batch's max|phi| < tol, or for ``iters`` steps; returns the new v and
    whether the batch met tol.  At tol = 0, or on a batch of one, it is the
    per-point projection of ``newton_onto_constraint``."""
    m, nx = np.shape(v)[-2:]
    v = np.array(v, dtype=float)
    for _ in range(iters):
        phi, dphi = spec.evaluate(x, y, v)
        if np.max(np.abs(phi)) < tol:
            return v, True
        J = dphi[..., nx + m :].reshape(dphi.shape[:-1] + (m, nx))[..., cols]
        pinv = np.linalg.pinv(J.reshape(J.shape[:-2] + (-1,)))
        delta = np.einsum("...ij,...j->...i", pinv, phi)
        v[..., cols] -= delta.reshape(J.shape[:-3] + J.shape[-2:])
    return v, False


def sample_point_oracle(model, spec, rng) -> JetPoint:
    """One verify point: x, y and v drawn from ``rng`` in that order (the
    fluid's spatial block by rejection), then projected onto the constraint
    set on its own, to 1e-12 in at most 50 steps."""
    dims = model.dims
    x = rng.uniform(-1.0, 1.0, dims.nx)
    y = rng.uniform(-1.0, 1.0, dims.m)
    if model.name == "fluid":
        v = np.zeros((dims.m, dims.nx))
        v[:, 0] = 0.3 * rng.uniform(-1.0, 1.0, dims.m)
        while True:
            vsp = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
            if abs(np.linalg.det(vsp)) > 0.3 and np.linalg.cond(vsp) < 20:
                break
        v[:, 1:] = vsp
    else:
        v = rng.uniform(-1.0, 1.0, (dims.m, dims.nx))
    v, converged = whole_batch_newton(spec, x, y, v, slice(None), 1e-12, 50)
    assert converged
    return JetPoint(x, y, v)


# the knife-edge string's moments of inertia and of bending
KNIFE_I, KNIFE_J = 0.5, 0.25


def knife_edge():
    """(model, spec) of the knife-edge elastic string: the fibre (x, y, theta)
    over (t, u), L = (x_t^2 + y_t^2 + I theta_t^2) / 2
    - (x_u^2 + y_u^2 + J theta_u^2) / 2, and every point of the string a knife
    edge, phi = sin(theta) x_t - cos(theta) y_t = 0.  The constraint reads y
    (theta), is linear in v0 and not integrable; its force has no theta part,
    so theta obeys the free wave I theta_tt = J theta_uu."""
    def fn(x, y, v):
        return (0.5 * (v[0][0] * v[0][0] + v[1][0] * v[1][0] + KNIFE_I * (v[2][0] * v[2][0]))
                - 0.5 * (v[0][1] * v[0][1] + v[1][1] * v[1][1]
                         + KNIFE_J * (v[2][1] * v[2][1])))

    def phi(x, y, v):
        return ad.sin(y[2]) * v[0][0] - ad.cos(y[2]) * v[1][0]

    return (LagrangianModel("knife-edge", Dims(1, 3), fn),
            ConstraintSpec(Dims(1, 3, 1), [phi], name="knife-edge"))


def nonlinear_wave_spec(c=0.5):
    """The wave's constraint v0 = 2 v1 + c v1^2 (criterion 9): nonlinear, so
    RK4 leaves its set at O(dt^4)."""
    def phi(x, y, v):
        return v[0][0] - 2.0 * v[0][1] - c * v[0][1] * v[0][1]

    return ConstraintSpec(Dims(1, 1, 1), [phi])
