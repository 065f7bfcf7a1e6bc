"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not configured elsewhere.  Scenario
shorthand: "wave" is the 1+1 Lagrangian (v0^2 - v1^2)/2 with the linear
constraint v0 - 2 v1; "fluid" is the 3+1 incompressible barotropic model
with J = det(spatial jet) = 1.
"""

import json

import numpy as np

from nhfields.cauchy import (
    constrained_membership_check,
    constraint_ansatz_fit,
    evolve,
    free_sode_omega_values,
    initial_state,
    sode_vector_field,
    tilde_eta_contract,
)
from nhfields.cli import main as cli_main
from nhfields.constraint import (
    ConstraintPoint,
    chetaev_coefficients,
    make_constraint,
)
from nhfields.ddw import (
    nh_ddw_residual,
    nh_field_residual,
    project_connection,
    solve_constrained_ddw,
    solve_free_ddw,
)
from nhfields.exterior import Form, TangentVector, eval_wedge_monomial
from nhfields.fluid import (
    PSI_SECTIONS,
    FluidParams,
    fluid_lagrangian,
    fluid_quantities,
    mixing_section,
    null_lagrangian_residual,
    psi_divergence_residual,
)
from nhfields.jet import Dims, Jet2Point, JetPoint
from nhfields.lagrangian import derivative_bundle, make_model
from nhfields.projector import (
    build_projectors,
    compatibility_matrix,
    solve_zeta,
    zeta_residual,
)

from helpers import (
    fluid_constraint_point,
    nonlinear_wave_spec,
    random_variation,
    random_vector,
    wave_on_constraint_point,
)

WAVE = make_model("wave")
WAVE_SPEC = make_constraint("linear-transport", {"speed": 2.0})
FLUID_PARAMS = FluidParams()
FLUID = fluid_lagrangian(FLUID_PARAMS)
FLUID_SPEC = make_constraint("incompressibility")


def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def scenario_points(rng, scenario, count):
    if scenario == "wave":
        return [wave_on_constraint_point(rng) for _ in range(count)]
    return [fluid_constraint_point(rng) for _ in range(count)]


def test_criterion_01_exterior_layer():
    """Antisymmetry, multilinearity, contraction on 1000 random inputs."""
    rng = np.random.default_rng(101)
    worst = 0.0
    n, m = 1, 2
    N = Dims(n, m).N
    for _ in range(334):
        # antisymmetry under a random transposition
        k = int(rng.integers(2, 5))
        factors = list(rng.uniform(-1, 1, (k, N)))
        vecs = [random_vector(rng, n, m) for _ in range(k)]
        i, j = rng.choice(k, size=2, replace=False)
        swapped = list(vecs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        worst = max(worst, abs(
            eval_wedge_monomial(factors, vecs)
            + eval_wedge_monomial(factors, swapped)
        ))
    for _ in range(333):
        # multilinearity in a random slot
        k = int(rng.integers(1, 5))
        factors = list(rng.uniform(-1, 1, (k, N)))
        vecs = [random_vector(rng, n, m) for _ in range(k)]
        slot = int(rng.integers(k))
        a, b = rng.uniform(-2, 2, 2)
        u, v = random_vector(rng, n, m), random_vector(rng, n, m)
        combo = TangentVector.from_components(
            a * u.components + b * v.components, n, m
        )
        with_u = list(vecs)
        with_v = list(vecs)
        with_c = list(vecs)
        with_u[slot], with_v[slot], with_c[slot] = u, v, combo
        worst = max(worst, abs(
            eval_wedge_monomial(factors, with_c)
            - a * eval_wedge_monomial(factors, with_u)
            - b * eval_wedge_monomial(factors, with_v)
        ))
    for _ in range(333):
        # contraction: i_u T evaluated vs direct insertion, and i_u i_u T = 0
        T = Form.from_terms(
            [(rng.uniform(-1, 1), list(rng.uniform(-1, 1, (3, N)))) for _ in range(3)],
            dim=N,
        )
        u, v, w = (random_vector(rng, n, m) for _ in range(3))
        worst = max(worst, abs(T.contract(u)([v, w]) - T([u, v, w])))
        worst = max(worst, abs(T.contract(u).contract(u)([w])))
    report(1, worst < 1e-12, f"(max residual {worst:.2e} over 1000 inputs)")


def test_criterion_02_constraint_distribution_identity():
    """i_zeta Omega_L + Phi = 0 on 50 tuples at 20 points per scenario."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for scenario, model, spec in (("wave", WAVE, WAVE_SPEC),
                                  ("fluid", FLUID, FLUID_SPEC)):
        for p in scenario_points(rng, scenario, 20):
            bundle = derivative_bundle(model, p)
            C = chetaev_coefficients(spec, p)
            zb = solve_zeta(bundle, C)
            worst = max(
                worst, zeta_residual(bundle, C, zb, p, rng=rng, tuples=50)
            )
    report(2, worst < 1e-9, f"(max residual {worst:.2e})")


def test_criterion_03_compatibility_classification():
    """f = 1 - k^2 for phi = v0 - k v1: compatible iff k != +-1."""
    rng = np.random.default_rng(103)
    ok = True
    detail = []
    for k in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        spec = make_constraint("linear-transport", {"speed": k})
        p = wave_on_constraint_point(rng, speed=k)
        bundle = derivative_bundle(WAVE, p)
        C = chetaev_coefficients(spec, p)
        zb = solve_zeta(bundle, C)
        comp = compatibility_matrix(zb.zeta, spec.dphidv_arrays(p.x, p.y, p.v))
        expected = abs(k) != 1.0
        ok = ok and comp["compatible"] == expected
        ok = ok and abs(comp["det"] - (1.0 - k * k)) < 1e-12
        detail.append(f"k={k}: det={comp['det']:.3g}")
    report(3, ok, "(" + "; ".join(detail) + ")")


def test_criterion_04_projector_invariants():
    """P^2 = P, Q^2 = Q, P+Q = I, dphi(Pv) = 0, Im Q = span zeta at 100
    on-constraint points per scenario, all below 1e-9."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for scenario, model, spec in (("wave", WAVE, WAVE_SPEC),
                                  ("fluid", FLUID, FLUID_SPEC)):
        for p in scenario_points(rng, scenario, 100):
            bundle = derivative_bundle(model, p)
            C = chetaev_coefficients(spec, p)
            zb = solve_zeta(bundle, C)
            pp = build_projectors(zb, spec.at(p), tol=1e-9)
            N = pp.P.shape[0]
            worst = max(
                worst,
                np.abs(pp.P @ pp.P - pp.P).max(),
                np.abs(pp.Q @ pp.Q - pp.Q).max(),
                np.abs(pp.P + pp.Q - np.eye(N)).max(),
            )
            vs = rng.uniform(-1, 1, (N, 5))
            worst = max(worst, np.abs(pp.dphi @ (pp.P @ vs)).max())
            # Im Q = span zeta via SVD: rank k and zero component outside
            U, s, _ = np.linalg.svd(pp.Q)
            k = spec.k
            worst = max(worst, float(s[k:].max(initial=0.0)))
            Z = zb.dense()
            basisZ, _ = np.linalg.qr(Z.T)
            img = U[:, :k]
            outside = img - basisZ @ (basisZ.T @ img)
            worst = max(worst, np.abs(outside).max())
    report(4, worst < 1e-9, f"(max invariant residual {worst:.2e})")


def test_criterion_05_free_ddw():
    """|(i_h Omega - n Omega)(tuple)| < 1e-9 on 50 tuples at 20 points per
    scenario; semi-holonomicity exact."""
    rng = np.random.default_rng(105)
    worst = 0.0
    semih = 0.0
    for scenario, model in (("wave", WAVE), ("fluid", FLUID)):
        for p in scenario_points(rng, scenario, 20):
            bundle = derivative_bundle(model, p)
            sol = solve_free_ddw(bundle, p.v)
            res = nh_ddw_residual(bundle, ConstraintPoint.unconstrained(p), sol,
                                  rng=rng, tuples=50)
            worst = max(worst, res["form_residual"])
            semih = max(semih, np.abs(sol.coeffs.Gamma - p.v).max())
    report(5, worst < 1e-9 and semih == 0.0,
           f"(max form residual {worst:.2e}, semi-holonomic gap {semih})")


def test_criterion_06_projected_solutions_solve_constrained_problem():
    """Projected free solutions solve the constrained problem: form
    residual < 1e-8, tangency < 1e-10, multiplier match 1e-8 at 100
    points; the direct constrained solve passes the same bounds."""
    rng = np.random.default_rng(106)
    worst_form = worst_tang = worst_lam = 0.0
    for idx, p in enumerate(scenario_points(rng, "wave", 100)):
        bundle = derivative_bundle(WAVE, p)
        cp = WAVE_SPEC.at(p)
        zb = solve_zeta(bundle, cp.coeffs)
        pp = build_projectors(zb, cp)
        fixed = rng.uniform(-1, 1, (1, 1, 2))
        free = solve_free_ddw(bundle, p.v, fixed_spatial=fixed)
        proj = project_connection(free, pp)
        res = nh_ddw_residual(bundle, cp, proj, rng=rng, tuples=50)
        worst_form = max(worst_form, res["form_residual"])
        worst_tang = max(worst_tang, res["tangency_residual"])
        worst_lam = max(worst_lam, res["lam_gap"])
        if idx % 10 == 0:
            direct = solve_constrained_ddw(bundle, cp)
            dres = nh_ddw_residual(bundle, cp, direct, rng=rng, tuples=50)
            worst_form = max(worst_form, dres["form_residual"])
            worst_tang = max(worst_tang, dres["tangency_residual"])
    ok = worst_form < 1e-8 and worst_tang < 1e-10 and worst_lam < 1e-8
    report(6, ok, f"(form {worst_form:.2e}, tangency {worst_tang:.2e}, "
                  f"lambda gap {worst_lam:.2e})")


def test_criterion_07_nonholonomic_field_equations():
    """y = (x + 2t)^2: E = 6, min-norm lambda = (6/5, -12/5), residual 0."""
    t0, x0 = 0.35, -0.2
    s = x0 + 2 * t0
    q = Jet2Point(
        JetPoint([t0, x0], [s * s], [[4 * s, 2 * s]]),
        np.array([[[8.0, 4.0], [4.0, 2.0]]]),
    )
    out = nh_field_residual(WAVE, WAVE_SPEC, q)
    lam_err = np.abs(out["lam_fit"] - [[6.0 / 5.0, -12.0 / 5.0]]).max()
    resid = np.abs(out["residual"]).max()
    phi = np.abs(out["constraint_vals"]).max()
    ok = lam_err < 1e-9 and resid < 1e-9 and phi < 1e-12
    report(7, ok, f"(lambda error {lam_err:.2e}, residual {resid:.2e})")


def test_criterion_08_cauchy_free_layer():
    """i_Gamma eta-tilde = 1 to 1e-12; d'Alembert match < 1e-5 after 1000
    RK4 steps at dt = 1e-3 on 64 points with energy drift < 1e-8; free
    contraction i_Gamma Omega-tilde < 1e-8 on 20 random variations."""
    state = initial_state(WAVE, None, 64, 1.0)
    gamma = sode_vector_field(WAVE, None, state)
    eta_gap = abs(tilde_eta_contract(state, gamma) - 1.0)

    rng = np.random.default_rng(108)
    variations = [random_variation(state, rng) for _ in range(20)]
    omega_vals = np.abs(free_sode_omega_values(WAVE, state, variations)).max()

    res = evolve(WAVE, None, state, 1e-3, 1000, "rk4")
    u = np.arange(64) / 64
    T = res.states[-1].t
    exact = 0.5 * (np.sin(2 * np.pi * (u - T)) + np.sin(2 * np.pi * (u + T)))
    err = np.abs(res.states[-1].y[:, 0] - exact).max()
    energy = res.diagnostics["energy"]
    drift = np.abs(energy - energy[0]).max()
    eta_run = np.abs(res.diagnostics["eta"] - 1.0).max()

    ok = (eta_gap < 1e-12 and eta_run < 1e-12 and err < 1e-5
          and drift < 1e-8 and omega_vals < 1e-8)
    report(8, ok, f"(eta gap {eta_gap:.1e}, wave error {err:.2e}, "
                  f"energy drift {drift:.2e}, free contraction {omega_vals:.2e})")


def test_criterion_09_constrained_cauchy():
    """Constrained full-jet wave evolution: constraint drift scales as
    O(dt^4) under RK4 where a drift signal exists (nonlinear constraint;
    the linear constraint is preserved to roundoff, which is stronger);
    i_{P Gamma} Omega-tilde vanishes to 1e-7 on constraint-tangent
    variations inside the annihilator of the induced codistribution; the
    difference i_{P Gamma} - i_Gamma fits the constraint-form ansatz to
    1e-7."""
    # (a) linear constraint: exactly tangent field + linear invariant means
    # RK4 preserves phi to roundoff
    state = initial_state(WAVE, WAVE_SPEC, 64, 0.1)
    res_lin = evolve(WAVE, WAVE_SPEC, state, 2e-3, 100, "rk4")
    lin_drift = res_lin.diagnostics["max_phi"].max()

    # (b) nonlinear constraint carries the measurable O(dt^4) signal
    nl_spec = nonlinear_wave_spec(0.5)
    nl_state = initial_state(WAVE, nl_spec, 64, 0.1)
    drifts = {}
    for dt in (4e-3, 2e-3):
        out = evolve(WAVE, nl_spec, nl_state, dt, int(round(0.2 / dt)), "rk4",
                     drift_tol=1e-3)
        drifts[dt] = out.diagnostics["max_phi"].max()
    ratio = drifts[4e-3] / drifts[2e-3]

    # (c) form-level checks at the holonomic on-constraint state
    rng = np.random.default_rng(109)
    variations = [random_variation(state, rng) for _ in range(20)]
    membership = np.abs(
        constrained_membership_check(WAVE, WAVE_SPEC, state, variations)
    ).max()
    fit = constraint_ansatz_fit(WAVE, WAVE_SPEC, state, variations)

    ok = (lin_drift < 1e-12 and drifts[4e-3] > 1e-12 and 12.0 <= ratio <= 20.0
          and membership < 1e-7 and fit["residual"] < 1e-7)
    report(9, ok, f"(linear drift {lin_drift:.1e}, dt ratio {ratio:.1f}, "
                  f"membership {membership:.2e}, ansatz residual "
                  f"{fit['residual']:.2e})")


def test_criterion_10_fluid():
    """Closed forms vs generic pipeline at 100 J=1 points (1e-9);
    null-Lagrangian residual < 1e-4 on 16^4 with 4th-order refinement;
    psi-divergence < 1e-6 on the three listed sections; 100-step smoke on
    the 8^3 torus keeps |J - 1| < 1e-5."""
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(100):
        p = fluid_constraint_point(rng)
        q = fluid_quantities(FLUID_PARAMS, p, spec=FLUID_SPEC)
        bundle = derivative_bundle(FLUID, p)
        C = chetaev_coefficients(FLUID_SPEC, p)
        zb = solve_zeta(bundle, C)
        pp = build_projectors(zb, FLUID_SPEC.at(p))
        comp = compatibility_matrix(zb.zeta, FLUID_SPEC.dphidv_arrays(p.x, p.y, p.v))
        worst = max(
            worst,
            np.abs(zb.zeta[0] - q["zeta"]).max(),
            abs(comp["mmat"][0, 0] - q["f"]),
            np.abs(pp.P - q["P"]).max(),
        )

    section = mixing_section(0.05, np.pi)
    r16 = null_lagrangian_residual(section, (4, 16, 16, 16))
    r32 = null_lagrangian_residual(section, (4, 32, 32, 32))
    ratio = r16 / r32

    psi_worst = max(
        psi_divergence_residual(fn, (6, 8, 8, 8)) for fn in PSI_SECTIONS.values()
    )

    smoke_state = initial_state(FLUID, FLUID_SPEC, 8, 0.01, velocity=0.005)
    smoke = evolve(FLUID, FLUID_SPEC, smoke_state, 1e-3, 100, "rk4",
                   drift_tol=1e-4)
    smoke_drift = smoke.diagnostics["max_phi"].max()

    ok = (worst < 1e-9 and r16 < 1e-4 and 10.0 <= ratio <= 22.0
          and psi_worst < 1e-6 and smoke_drift < 1e-5)
    report(10, ok, f"(closed-form gap {worst:.2e}, piola {r16:.2e} ratio "
                   f"{ratio:.1f}, psi {psi_worst:.2e}, smoke drift "
                   f"{smoke_drift:.2e})")


def test_criterion_11_determinism(tmp_path):
    """Fixed seed: repeated verify runs produce byte-identical reports."""
    cfg = {
        "model": {"name": "wave"},
        "constraint": {"name": "linear-transport", "params": {"speed": 2.0}},
        "task": "verify",
        "seed": 1,
        "points": 10,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for run in ("A", "B"):
        out = tmp_path / run
        assert cli_main(["--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    ok = outs[0] == outs[1]
    report(11, ok, f"({len(outs[0])} bytes per report)")
