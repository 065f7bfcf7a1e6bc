"""The identity chain of the ``verify`` task, over a batch of jet points:
the checks that the constrained De Donder-Weyl equations are a projection
of the free ones.  ``verify_points`` returns each point's checks, or the
error that stopped it, and ``first_failure`` reads an entry's first failed
verdict against ``CHECK_BOUNDS``.  Sampling the points and writing the
report are the caller's; ``chunk_points`` sizes the batches."""

from __future__ import annotations

import numpy as np

from .constraint import coefficient_arrays, constraint_ranks, off_constraint_errors
from .ddw import DdwSolution, nh_ddw_residual_batch, solve_ddw
from .exterior import split_blocks
from .jet import ConnectionCoeffs, connection_errors, semiholonomic_residuals
from .lagrangian import bundle_errors, derivative_bundle_arrays, hessian_flat, regularity_check
from .projector import (compatibility_matrix, project_lifts, projector_pairs, solve_zeta_flat,
                        zeta_residual_batch)

# Bytes the identity chain of one chunk of verify points may hold at once.
# A point's chain peaks at about ten times the bytes of the tuples of one
# form check, tuples x (n+2) x N doubles (tracemalloc: 15.4 MB for the
# fluid and 2.4 MB for the wave at 2,000 tuples), so 16 MiB is a chunk of 44
# fluid points at 50 tuples, and one point at 2,000.  Past about 32 points
# a larger chunk runs no faster per point.
_CHUNK_BYTES = 16 * 2**20

def chunk_points(dims, tuples: int) -> int:
    """The points of one chunk of ``verify_points`` at ``tuples`` tuples."""
    return max(1, _CHUNK_BYTES // (10 * 8 * tuples * (dims.nx + 1) * dims.N))


class _Chunk:
    """The points of a verify chunk still in the chain, with the arrays over
    them, and per point its checks so far or the error that stopped it."""

    def __init__(self, pts: list):
        self.out = [{} for _ in pts]
        self.live = {"at": np.arange(len(pts))}
        for key in "xyv":
            self.live[key] = np.array([getattr(p, key) for p in pts])

    def __getitem__(self, key):
        return self.live[key]

    def __setitem__(self, key, val):
        self.live[key] = val

    def leave(self, gone) -> bool:
        """Take the points of the mask ``gone`` out; whether any are left."""
        if np.any(gone):
            self.live = {key: val[~gone] for key, val in self.live.items()}
        return len(self.live["at"]) > 0

    def stop(self, found: dict) -> bool:
        """Take the points with an error out, recording it; whether any are left."""
        gone = np.zeros(len(self.live["at"]), dtype=bool)
        for (j,), error in found.items():
            self.out[self.live["at"][j]] = error
            gone[j] = True
        return self.leave(gone)

    def record(self, **checks):
        for j, i in enumerate(self.live["at"]):
            self.out[i].update((key, val[j]) for key, val in checks.items())


def verify_points(model, spec, points: list, rng, tols, tuples: int) -> list:
    """The identity chain over a chunk of points, as one batch, with
    ``nh_ddw_residual_batch`` checking each De Donder-Weyl solution at form
    level (the free one as k = 0).  Returns each point's checks, in report
    order, or the ``NhfieldsError`` that stopped it.

    The stages run in the pointwise order, and each check runs right after
    the solve it checks.  A point leaves the batch where its pointwise chain
    would stop: at an error, or after the compatibility test when that
    fails.  Before the first stage each point draws its check tuples from
    ``rng`` as one block, in point order: the zeta tuples, then the free,
    projected and direct ones, whether or not it reaches those checks.
    """
    m, nx, N = model.dims.m, model.dims.nx, model.dims.N
    c = _Chunk(points)
    sizes = [tuples * nx * N] + 3 * [tuples * (nx + 1) * N]
    blocks = rng.uniform(-1.0, 1.0, size=(len(points), sum(sizes)))
    for name, vecs in zip(("zeta", "free", "proj", "direct"),
                          np.split(blocks, np.cumsum(sizes)[:-1], axis=1)):
        c[name + "_vecs"] = vecs.reshape(len(points), tuples, -1, N)

    def check(name, dphi, coeffs, lam, **fields):
        """The form check of the live points' solution ``name``."""
        sol = DdwSolution(ConnectionCoeffs(c["v"], c[name]), lam)  # every Gamma is v
        res = nh_ddw_residual_batch(c["bundle"], c["v"], dphi, coeffs, sol, c[name + "_vecs"])
        c.record(**{field: res[key] for field, key in fields.items()})

    def solve(*constraint):
        """solve_ddw's Gamma2 and multipliers, with the error of each point
        it has no solution at, or a non-finite one."""
        block, lam, errors = solve_ddw(c["bundle"], c["v"], None, *constraint)
        return block, lam, {**connection_errors(c["v"], block), **errors}

    c["bundle"] = derivative_bundle_arrays(model, c["x"], c["y"], c["v"])
    if not c.stop(bundle_errors(model, c["bundle"])):
        return c.out
    reg = regularity_check(c["bundle"])
    c.record(hessian_det=reg["det"], regular=reg["regular"])
    phi, c["dphi"] = spec.evaluate(c["x"], c["y"], c["v"])
    if not c.stop(off_constraint_errors(phi, spec.on_tol)):
        return c.out
    c["dphidv"] = split_blocks(c["dphi"], m, nx)[2]
    c["coeffs"] = coefficient_arrays(spec, c["dphidv"])
    rank, errors = constraint_ranks(c["dphidv"], c["coeffs"])
    c.record(rank=rank)
    if not c.stop(errors):
        return c.out
    c["zeta"], errors = solve_zeta_flat(hessian_flat(c["bundle"]), c["coeffs"])
    if not c.stop(errors):
        return c.out
    c.record(zeta_residual=zeta_residual_batch(c["bundle"], c["coeffs"], c["zeta"], c["v"],
                                               c["zeta_vecs"]))
    comp = compatibility_matrix(c["zeta"], c["dphidv"], tols["compatibility"])
    compatible = comp["compatible"]
    c.record(compatibility_det=comp["det"], compatible=compatible)
    comp = {key: val[compatible] for key, val in comp.items()}
    if not c.leave(~compatible):
        return c.out
    pp, errors = projector_pairs(c["zeta"], c["dphi"], comp, tols["projector"])
    c["Lam"] = pp.Lam
    c.record(projector_residual=np.max([
        np.abs(pp.P @ pp.P - pp.P).max(axis=(-2, -1)),
        np.abs(pp.P + pp.Q - np.eye(N)).max(axis=(-2, -1)),
        np.abs(pp.dphi @ pp.P).max(axis=(-2, -1)),
    ], axis=0))
    if not c.stop(errors):
        return c.out
    c["free"], _, errors = solve()
    if not c.stop(errors):
        return c.out
    P = len(c["at"])
    check("free", np.zeros((P, 0, N)), np.zeros((P, 0, nx, m)), np.zeros((P, 0, nx)),
          free_ddw_residual="form_residual")
    semiholonomic, errors = semiholonomic_residuals(c["v"], c["v"])  # free Gamma = v
    c.record(semiholonomic=semiholonomic)
    if not c.stop(errors):
        return c.out
    c["proj"], c["proj_lam"] = project_lifts(c["v"], c["free"], c["dphi"], c["Lam"], c["zeta"])
    if not c.stop(connection_errors(c["v"], c["proj"])):
        return c.out
    check("proj", c["dphi"], c["coeffs"], c["proj_lam"], nh_form_residual="form_residual",
          nh_tangency_residual="tangency_residual", lambda_match="lam_gap")
    c["direct"], c["direct_lam"], errors = solve(c["dphi"], c["coeffs"])
    if c.stop(errors):
        check("direct", c["dphi"], c["coeffs"], c["direct_lam"],
              direct_form_residual="form_residual",
              direct_tangency_residual="tangency_residual")
    return c.out


# each residual of a checked point, in report order, with its tolerance key
CHECK_BOUNDS = [
    ("zeta_residual", "zeta"),
    ("projector_residual", "projector"),
    ("free_ddw_residual", "free_ddw"),
    ("semiholonomic", "free_ddw"),
    ("nh_form_residual", "nh_form"),
    ("nh_tangency_residual", "tangency"),
    ("lambda_match", "lambda_match"),
    ("direct_form_residual", "nh_form"),
    ("direct_tangency_residual", "tangency"),
]


def first_failure(entry: dict, idx: int, tols) -> str | None:
    """The first failed verdict of a checked point's entry, or None.  A
    residual passes only when it is at most its tolerance, so a NaN fails."""
    if not entry["compatible"]:
        return f"compatibility at point {idx} (det = {entry['compatibility_det']:.3e})"
    for key, tol_key in CHECK_BOUNDS:
        if not entry[key] <= tols[tol_key]:
            return f"{key} at point {idx}: {entry[key]:.3e} > {tols[tol_key]:.1e}"
    return None
