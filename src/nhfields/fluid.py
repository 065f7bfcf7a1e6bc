"""Incompressible barotropic fluid on a 3+1 base: closed forms and identities.

The Lagrangian is rho (|v_0|^2 / 2 - W(J) - mu |v_i|^2 / 2) with
J = det(v^a_i) and stored energy W(J) = kappa (J-1)^2 / 2 + beta (J-1);
the constraint is J = 1.  The spatial Hessian of the stored energy has the
closed form

    d2W/dv^a_i dv^b_j = W'' K^i_a K^j_b
        + W' J ((v^-1)^i_a (v^-1)^j_b - (v^-1)^i_b (v^-1)^j_a),

with K = J v^-T the cofactor matrix, so the constraint direction zeta, the
compatibility scalar f = zeta(phi) and the rank-one projector
P = I - f^-1 dphi (x) zeta all have closed forms that cross-check the
generic pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .constraint import (
    ConstraintSpec,
    coefficient_arrays,
    incompressibility_constraint,
    jet_block,
)
from .exceptions import (
    CompatibilityError,
    InternalConsistencyError,
    InvalidArgumentError,
)
from .jet import Dims, JetPoint, periodic_derivative
from .lagrangian import LagrangianModel, derivative_bundle
from .projector import compatibility_matrix, solve_zeta


@dataclass(frozen=True)
class FluidParams:
    """Material density rho, stored-energy parameters, optional regularizer.

    beta = W'(1) must be nonzero when mu = 0: with W'(1) = 0 the spatial
    Hessian at the identity degenerates to the rank-one cofactor square and
    the Lagrangian is not regular there.
    """

    rho: float = 1.0
    kappa: float = 1.0
    beta: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if self.rho <= 0:
            raise InvalidArgumentError("material density rho must be positive")
        if self.kappa < 0 or self.mu < 0:
            raise InvalidArgumentError("kappa and mu must be nonnegative")
        if self.mu == 0.0 and self.beta == 0.0:
            raise InvalidArgumentError(
                "beta = 0 with no regularizer makes the Hessian singular on "
                "the constraint set"
            )

    def W(self, J):
        return 0.5 * self.kappa * (J - 1.0) * (J - 1.0) + self.beta * (J - 1.0)

    def dW(self, J):
        return self.kappa * (J - 1.0) + self.beta

    def d2W(self, J):
        return self.kappa + 0.0 * J


def fluid_lagrangian(params: FluidParams | None = None) -> LagrangianModel:
    params = params or FluidParams()

    def fn(x, y, v):
        kinetic = 0.0
        for a in range(3):
            kinetic = kinetic + v[a][0] * v[a][0]
        # J = det(v^a_i) goes straight into W, so its Hessian is freed there
        L = 0.5 * kinetic - params.W(ad.det([[v[a][i + 1] for i in range(3)] for a in range(3)]))
        if params.mu:
            frob = 0.0
            for a in range(3):
                for i in range(3):
                    frob = frob + v[a][i + 1] * v[a][i + 1]
            L = L - 0.5 * params.mu * frob
        return params.rho * L

    return LagrangianModel("fluid", Dims(3, 3), fn)


def spatial_hessian_closed(params: FluidParams, vsp: np.ndarray) -> np.ndarray:
    """d2L/dv^a_i dv^b_j from the barotropic closed form, shape (3,3,3,3)
    indexed [a, i, b, j]."""
    J = np.linalg.det(vsp)
    vinv = np.linalg.inv(vsp)  # (v^-1)^i_a = vinv[i, a]
    K = J * vinv.T  # K[a, i] = J (v^-1)^i_a
    dK = J * (
        np.einsum("ia,jb->aibj", vinv, vinv) - np.einsum("ib,ja->aibj", vinv, vinv)
    )  # d K[a,i] / d v[b,j]
    d2W = params.d2W(J) * np.einsum("ai,bj->aibj", K, K) + params.dW(J) * dK
    H = -params.rho * d2W
    if params.mu:
        H = H - params.rho * params.mu * np.einsum(
            "ab,ij->aibj", np.eye(3), np.eye(3)
        )
    return H


def fluid_quantities(params: FluidParams, p: JetPoint,
                     spec: ConstraintSpec | None = None) -> dict:
    """J, inverse and cofactor K = J v^-T of the spatial block, and the
    closed forms of zeta, f and P at p.

    The temporal block rho I of the Hessian gives zeta_0 = 0 and the
    closed-form spatial Hessian solves H_sp zeta_sp = K; f = zeta_sp : K, and
    P = I - f^-1 dphi (x) zeta, where the dphi row holds K in the spatial
    v-block.  The generic constraint-distribution solve on the full
    automatic-differentiation Hessian must agree with zeta, which pins the
    sign and density conventions.  f vanishes when ``compatibility_matrix``
    says so, relative to the scale ||zeta|| ||K||.
    """
    if (p.n, p.m) != (3, 3):
        raise InvalidArgumentError("the fluid scenario lives on n = 3, m = 3")
    vsp = p.v[:, 1:]
    J = float(np.linalg.det(vsp))
    if abs(J) < 1e-12:
        raise InvalidArgumentError("spatial jet block is singular")
    vinv = np.linalg.inv(vsp)
    C_matrix = J * vinv.T  # C^i_a as [a, i]: dJ/dv^a_i
    Hsp = spatial_hessian_closed(params, vsp).reshape(9, 9)
    # zeta and dphi/dv as (k, m, n+1) with k = 1
    zeta, dphidv = np.zeros((2, 1, 3, 4))
    zeta[0, :, 1:] = np.linalg.solve(Hsp, C_matrix.reshape(9)).reshape(3, 3)
    dphidv[0, :, 1:] = C_matrix

    spec = spec or incompressibility_constraint()
    dims = spec.dims
    _, dphi = spec.evaluate(p.x, p.y, p.v)
    coeffs = coefficient_arrays(spec, jet_block(dphi, dims.m, dims.nx))
    generic = solve_zeta(derivative_bundle(fluid_lagrangian(params), p), coeffs).zeta
    gap = np.max(np.abs(generic - zeta))
    if gap > 1e-9 * np.max(np.abs(zeta)):
        raise InternalConsistencyError(
            f"closed-form zeta disagrees with the generic solve: max diff {gap:.3e}")

    f = float(np.einsum("ai,ai->", zeta[0, :, 1:], C_matrix))
    if not compatibility_matrix(zeta, dphidv)["compatible"]:
        raise CompatibilityError(f"compatibility scalar f = {f:.3e} vanishes")
    rows = np.zeros((2, dims.N))  # zeta and dphi in the full layout
    rows[:, dims.nx + dims.m :] = np.concatenate([zeta, dphidv]).reshape(2, -1)
    P = np.eye(dims.N) - np.outer(rows[0], rows[1]) / f
    return {"J": J, "vinv": vinv, "C": C_matrix, "zeta": zeta[0], "f": f, "P": P}


# ---------------------------------------------------------------------------
# the constraint is a null Lagrangian: its cofactor rows are divergence
# free on jet data of sections, and it is itself a total divergence

def _interior(arr: np.ndarray, axes, r: int = 2) -> np.ndarray:
    """Trim the stencil margin along the differentiated axes only: there
    the periodic stencil wraps around the patch, which is not periodic."""
    sl = [slice(None)] * arr.ndim
    for ax in axes:
        if arr.shape[ax] <= 2 * r:
            raise InvalidArgumentError(
                f"axis {ax} has {arr.shape[ax]} points, need more than {2 * r}"
            )
        sl[ax] = slice(r, arr.shape[ax] - r)
    return arr[tuple(sl)]


def _section_jet(section, shape):
    """Sample y, dy/dx and the sampled coordinates of a section on a patch
    whose axis of N points has spacing 1/N.

    ``section(x)`` maps coordinate arrays (.., 4) to field values (.., 3)
    in generic scalars; the Jacobian comes from forward differentiation, so
    no periodicity of y is needed.
    """
    axes = [np.arange(N) * (1.0 / N) for N in shape]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)  # (.., 4)
    xs = [ad.Dual.seed(coords[..., mu], 4, mu) for mu in range(4)]
    out = section(xs)
    y = np.stack([np.asarray(o.val, dtype=float) for o in out], axis=-1)
    jac = np.stack([o.dense(4) for o in out], axis=-2)  # (.., 3, 4)
    return coords, y, jac


def null_lagrangian_residual(section, shape=(16, 16, 16, 16)) -> float:
    """max interior |d/dx^i K^i_a(v(x))| for the section sampled at spacing
    1/N on an axis of N points.

    The constraint has no y-dependence and no temporal jet dependence, so
    the null-Lagrangian identity reduces to the divergence-free rows of the
    cofactor matrix; total derivatives are 4th-order finite differences of
    the composed map x -> K(v(x)) on the patch.
    """
    _, _, jac = _section_jet(section, shape)
    vsp = jac[..., :, 1:]  # (.., 3, 3)
    J = np.linalg.det(vsp)
    if np.min(np.abs(J)) < 1e-8:
        raise InvalidArgumentError("spatial jet block is (near) singular on the patch")
    K = J[..., None, None] * np.swapaxes(np.linalg.inv(vsp), -1, -2)
    div = np.zeros(shape + (3,))
    for i in range(3):
        div += periodic_derivative(K[..., :, i], 1.0 / shape[1 + i], axis=1 + i)
    return float(np.max(np.abs(_interior(div, (1, 2, 3)))))


def psi_divergence_residual(section, shape=(8, 8, 8, 8)) -> float:
    """max interior |phi - d psi^mu / dx^mu| for the potential
    psi^0 = 0, psi^i = (J y^a (v^-1)^i_a - x^i) / 3, with the section
    sampled at spacing 1/N on an axis of N points.

    The total derivative runs through the composed dependence on
    (x, y(x), v(x)) by finite differences of the sampled psi field.
    """
    coords, y, jac = _section_jet(section, shape)
    vsp = jac[..., :, 1:]
    J = np.linalg.det(vsp)
    if np.min(np.abs(J)) < 1e-8:
        raise InvalidArgumentError("spatial jet block is (near) singular on the patch")
    vinv = np.linalg.inv(vsp)  # [.., i, a]
    psi = (
        J[..., None] * np.einsum("...ia,...a->...i", vinv, y)
        - coords[..., 1:]
    ) / 3.0
    div = np.zeros(shape)
    for i in range(3):
        div += periodic_derivative(psi[..., i], 1.0 / shape[1 + i], axis=1 + i)
    phi = J - 1.0
    return float(np.max(np.abs(_interior(phi - div, (1, 2, 3)))))


def mixing_section(eps: float, freq: float):
    """The smooth section of the fluid-identities task, x^a + eps sin(freq x^b)
    cos(freq x^c) with (a, b, c) cyclic: its residuals show the 4th order."""
    def fn(xs):
        t, x1, x2, x3 = xs
        return [
            x1 + eps * ad.sin(freq * x2) * ad.cos(freq * x3),
            x2 + eps * ad.sin(freq * x3) * ad.cos(freq * x1),
            x3 + eps * ad.sin(freq * x1) * ad.cos(freq * x2),
        ]
    return fn


# the task's linear sections, on which psi_divergence_residual is roundoff
PSI_SECTIONS = {
    "identity": lambda xs: [xs[1], xs[2], xs[3]],
    "shear": lambda xs: [xs[1] + 0.7 * xs[2], xs[2], xs[3]],
    "double-x1": lambda xs: [2.0 * xs[1], xs[2], xs[3]],
}
