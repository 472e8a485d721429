import numpy as np
import pytest

from ghlpc.errors import ConvergenceError
from ghlpc.modeldsl import parse_model
from ghlpc.predictor import beta_of_eps, k_of_beta, orbit_of_eps, period_of_eps
from ghlpc.verify import (
    amplitude_oracle,
    convergence_study,
    correct_lpc,
    dde_residual,
    fit_loglog,
    homological_residual,
    integrate,
    lpc_seed,
)

HARMONIC = parse_model("state x y\nparam a b\ndx = -y + 0*a\ndy = x + 0*b\n")


def test_harmonic_oscillator_period():
    tr = integrate(HARMONIC, [1.0, 0.0], [0.0, 0.0], (0.0, 2.0 * np.pi),
                   with_variational=True, t_eval=[2.0 * np.pi])
    assert np.allclose(tr.x[-1], [1.0, 0.0], atol=1e-9)
    assert np.allclose(tr.monodromy, np.eye(2), atol=1e-9)


def test_self_convergence_lorenz(l84_pack):
    gh = l84_pack.gh
    a = integrate(l84_pack.model, gh.x0 + 0.01, gh.alpha0, (0.0, 5.0),
                  rtol=1e-11, t_eval=[5.0])
    b = integrate(l84_pack.model, gh.x0 + 0.01, gh.alpha0, (0.0, 5.0),
                  rtol=0.5e-11, t_eval=[5.0])
    assert np.max(np.abs(a.x[-1] - b.x[-1])) < 1e-8


def test_variational_vs_fd(l84_pack):
    gh = l84_pack.gh
    x0 = gh.x0 + 0.01
    T = 2.0
    tr = integrate(l84_pack.model, x0, gh.alpha0, (0.0, T),
                   with_variational=True, t_eval=[T])
    h = 1e-6
    Mfd = np.zeros((4, 4))
    for j in range(4):
        p = integrate(l84_pack.model, x0 + h * np.eye(4)[j], gh.alpha0,
                      (0.0, T), t_eval=[T])
        m = integrate(l84_pack.model, x0 - h * np.eye(4)[j], gh.alpha0,
                      (0.0, T), t_eval=[T])
        Mfd[:, j] = (p.x[-1] - m.x[-1]) / (2 * h)
    assert np.allclose(tr.monodromy, Mfd, rtol=1e-5, atol=1e-6)


def test_correct_lpc_converges_and_is_fixed_point(bk_pack):
    seed = lpc_seed(bk_pack.cs, 0.1, "higher")
    corr = correct_lpc(bk_pack.model, seed)
    assert corr.iterations <= 6
    assert corr.newton_residual <= 1e-9
    # re-seeding from the converged solution takes at most one step
    seed2 = lpc_seed(bk_pack.cs, 0.1, "higher")
    seed2.x0, seed2.T, seed2.alpha = corr.x0_cycle, corr.T, corr.alpha
    corr2 = correct_lpc(bk_pack.model, seed2)
    assert corr2.iterations <= 1
    assert np.allclose(corr2.alpha, corr.alpha, atol=1e-9)


def test_correct_lpc_periodicity_and_fold(bk_pack):
    seed = lpc_seed(bk_pack.cs, 0.08, "higher")
    corr = correct_lpc(bk_pack.model, seed)
    tr = integrate(bk_pack.model, corr.x0_cycle, corr.alpha, (0.0, corr.T),
                   with_variational=True, t_eval=[corr.T])
    assert np.linalg.norm(tr.x[-1] - corr.x0_cycle) <= 1e-9
    assert np.linalg.norm((tr.monodromy - np.eye(2)) @ corr.v) <= 1e-8 * np.linalg.norm(corr.v)


def test_correct_lpc_seed_independence(bk_pack):
    # both predictor orders, same section: the fold location in parameter
    # space is seed-independent to Newton accuracy.  The cycle point and
    # period keep an O(sqrt(tol)) spread along the soft collision direction
    # of the fold, which is intrinsic to the geometry, not the solver.
    eps = 0.05
    seed_h = lpc_seed(bk_pack.cs, eps, "higher")
    corr_h = correct_lpc(bk_pack.model, seed_h)
    seed_f = lpc_seed(bk_pack.cs, eps, "first")
    corr_f = correct_lpc(bk_pack.model, seed_f, section=seed_h)
    assert np.linalg.norm(corr_f.alpha - corr_h.alpha) < 1e-8
    assert abs(corr_f.T - corr_h.T) < 1e-3 * corr_h.T
    assert np.linalg.norm(corr_f.x0_cycle - corr_h.x0_cycle) < 1e-3


def test_correct_lpc_divergence_error(bk_pack):
    seed = lpc_seed(bk_pack.cs, 0.1, "higher")
    seed.alpha = seed.alpha + np.array([0.3, 0.3])  # far outside the basin
    with pytest.raises(ConvergenceError):
        correct_lpc(bk_pack.model, seed, maxit=6)


def test_fit_slope_sanity():
    eps = np.geomspace(1e-3, 1e-1, 9)
    s, res, keep = fit_loglog(eps, 2.5 * eps**3, floor=0.0, ceil=np.inf)
    assert abs(s - 3.0) < 1e-6
    with pytest.raises(ConvergenceError):
        fit_loglog(eps, np.full(9, 1e-20), floor=1e-12)


def test_amplitude_oracle_suite(rng):
    # |beta_formula - beta_oracle| slopes over 20 random coefficient draws;
    # the floor excludes the solve-roundoff plateau at tiny rho
    rhos = np.geomspace(1e-3, 5e-2, 12)
    noise = 1e-14 * rhos**2
    for _ in range(20):
        d2 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        d3 = rng.uniform(-2.0, 2.0)
        a = rng.uniform(-2.0, 2.0)
        diff = np.array([
            np.abs(amplitude_oracle(d2, d3, a, r)
                   - np.array([d2 * r**4 + 2 * (d3 - a * d2) * r**6,
                               -2 * d2 * r**2 + (4 * a * d2 - 3 * d3) * r**4]))
            for r in rhos
        ])
        s1, _, _ = fit_loglog(rhos, diff[:, 0], floor=noise, ceil=np.inf)
        s2, _, _ = fit_loglog(rhos, diff[:, 1], floor=noise, ceil=np.inf)
        assert s1 >= 6.5, (d2, d3, a, s1)
        assert s2 >= 4.5, (d2, d3, a, s2)
    assert np.allclose(amplitude_oracle(-1.0, 0.3, 0.1, 0.0), [0.0, 0.0])


def test_beta_formula_solves_amplitude_system(bk_pack):
    # P(eps, beta(eps)) residual orders: O(eps^7) and O(eps^5) per component
    d2, d3, a = bk_pack.crit.d2, bk_pack.crit.d3, bk_pack.pc.a3201
    eps = np.geomspace(3e-3, 5e-2, 8)
    r1, r2 = [], []
    for e in eps:
        b = beta_of_eps(bk_pack.crit, bk_pack.pc, e, "higher")
        e2 = e * e
        rc2 = d2 + a * b[1]
        r1.append(abs(b[0] + b[1] * e2 + rc2 * e2**2 + d3 * e2**3))
        r2.append(abs(b[1] + 2 * rc2 * e2 + 3 * d3 * e2**2))
    s1, _, _ = fit_loglog(eps, np.array(r1), floor=1e-26, ceil=np.inf)
    s2, _, _ = fit_loglog(eps, np.array(r2), floor=1e-26, ceil=np.inf)
    assert s1 >= 6.5 and s2 >= 4.5


def test_homological_sweeps_bk(bk_pack):
    ws = np.geomspace(2e-2, 2e-1, 10)
    res = np.array([
        homological_residual(bk_pack.cs, w * np.exp(0.7j), (0.0, 0.0))
        for w in ws
    ])
    s, _, _ = fit_loglog(ws, res, floor=1e-12)
    assert s >= 7.5
    bs = np.geomspace(1e-3, 1e-1, 10)
    res_b = np.array([
        homological_residual(bk_pack.cs, 0.0, (0.0, b)) for b in bs
    ])
    sb, _, _ = fit_loglog(bs, res_b, floor=1e-14)
    assert sb >= 3.5


def test_homological_mixed_scaled_sweep(bk_pack):
    # along the LPC scaling w ~ eps, beta2 ~ eps^2, beta1 ~ eps^4 every
    # computed coefficient participates; any missing or wrong term kills
    # the eighth-order residual decay
    es = np.geomspace(2e-2, 2e-1, 10)
    res = np.array([
        homological_residual(bk_pack.cs, e * np.exp(0.3j),
                             (0.7 * e**4, -1.3 * e**2))
        for e in es
    ])
    s, _, _ = fit_loglog(es, res, floor=1e-12)
    assert s >= 7.5


def test_homological_zero_point(bk_pack, fhn_pack):
    assert homological_residual(bk_pack.cs, 0.0, (0.0, 0.0)) < 1e-12
    assert homological_residual(fhn_pack.cs, 0.0, (0.0, 0.0)) < 1e-12


def test_homological_sweep_dde(fhn_pack):
    ws = np.geomspace(2e-2, 2e-1, 10)
    res = np.array([
        homological_residual(fhn_pack.cs, w * np.exp(0.4j), (0.0, 0.0))
        for w in ws
    ])
    s, _, _ = fit_loglog(ws, res, floor=1e-12)
    assert s >= 7.5


def test_dde_residual_vanishes_at_zero_eps(fhn_pack):
    cs = fhn_pack.cs
    psi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    orb = orbit_of_eps(cs, 1e-9, psi)
    T = period_of_eps(cs.crit, cs.pc, 1e-9)
    r = dde_residual(cs.model, cs.alpha0, T, orb)
    assert r < 1e-9


def test_dde_residual_ode_cross_check(bk_pack, bk_dde_pack):
    # the same predicted orbit, from either pipeline, leaves the same residual
    psi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    eps = 0.05
    a = {}
    for tag, cs in (("ode", bk_pack.cs), ("dde", bk_dde_pack.cs)):
        beta = beta_of_eps(cs.crit, cs.pc, eps, "higher")
        alpha = cs.alpha0 + k_of_beta(cs.pc, beta, "higher")
        T = period_of_eps(cs.crit, cs.pc, eps, "higher")
        orb = orbit_of_eps(cs, eps, psi, beta=beta, order="higher")
        a[tag] = dde_residual(bk_pack.model, alpha, T, orb)
    assert abs(a["ode"] - a["dde"]) < 1e-10


def test_dde_residual_nyquist_guard(fhn_pack):
    from ghlpc.errors import EvaluationError
    cs = fhn_pack.cs
    psi = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)  # deliberately coarse
    orb = orbit_of_eps(cs, 0.25, psi)
    orb = orb + 0.05 * np.cos(3.9 * psi)[:, None]  # inject unresolved content
    with pytest.raises(EvaluationError):
        dde_residual(cs.model, cs.alpha0, 10.0, orb)


def test_convergence_study_dde(fhn_pack):
    rep = convergence_study(fhn_pack.cs, np.geomspace(0.02, 0.2, 6))
    assert rep.metric == "dde-orbit-residual"
    assert rep.slope_higher - rep.slope_first >= 1.5


def test_slopes_stable_under_halved_sampling(fhn_pack):
    # half the sample count over the same window must not move the fit;
    # sliding the window itself shifts the higher slope because eps^7 and
    # eps^8 remainder terms compete, which is physics rather than fit noise
    rep = convergence_study(fhn_pack.cs, np.geomspace(0.01, 0.2, 12))
    for err, slope in ((rep.errors_first, rep.slope_first),
                       (rep.errors_higher, rep.slope_higher)):
        s_half, _, _ = fit_loglog(rep.eps[::2], err[::2], floor=1e-12)
        assert abs(s_half - slope) <= 0.1
