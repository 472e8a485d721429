import cmath

import numpy as np
import pytest

from ghlpc.dde import (
    CharMatrix,
    HistFn,
    bordered_inv_dde,
    dde_eigenpair,
    dde_multilinear,
    resolvent_case,
    sun_pairing,
)
from ghlpc.errors import ConvergenceError, ResonanceError
from ghlpc.models import builtin


def scalar_char(coef=-1.0, tau=1.0):
    return CharMatrix(M=(np.array([[0.0]]), np.array([[coef]])), delays=(tau,))


def test_delta_scalar_example():
    # xdot = -x(t - 1): Delta(z) = z + e^-z, Delta(0) = 1
    ch = scalar_char()
    assert abs(ch.delta(0.0)[0, 0] - 1.0) < 1e-15
    z = 0.3 + 0.7j
    assert abs(ch.delta(z)[0, 0] - (z + cmath.exp(-z))) < 1e-14


def test_delta_derivatives_vs_finite_differences(rng, fhn_pack):
    ch = fhn_pack.gh.char
    h = 1e-6
    for _ in range(4):
        z = complex(rng.normal(), rng.normal())
        for k in range(1, 5):
            fd = (ch.delta(z + h, k - 1) - ch.delta(z - h, k - 1)) / (2 * h)
            assert np.allclose(ch.delta(z, k), fd, rtol=1e-7, atol=1e-7), k


def test_classical_root_pi_over_two():
    # xdot = -(pi/2) x(t - 1) has the purely imaginary root i pi/2
    ch = scalar_char(coef=-np.pi / 2.0)
    w0, q, p = dde_eigenpair(ch, 1.5)
    assert abs(w0 - np.pi / 2.0) < 1e-12
    lam = 1j * w0
    assert abs(lam + (np.pi / 2.0) * cmath.exp(-lam)) < 1e-12
    assert abs(p @ ch.delta(lam, 1) @ q - 1.0) < 1e-12
    assert abs(np.vdot(q, q) - 1.0) < 1e-13


def test_zero_extra_delay_reduces_to_ode():
    bm = builtin("bazykin-khibnik")
    A = np.array([[0.0, -0.25], [0.5, 0.0]])
    ch = CharMatrix(M=(A,), delays=())
    w0, q, p = dde_eigenpair(ch, 0.35)
    assert abs(w0 - np.sqrt(2.0) / 4.0) < 1e-13
    assert np.allclose(ch.delta(0.5j), 0.5j * np.eye(2) - A)


def test_fhn_delta_singular_at_root(fhn_pack):
    gh = fhn_pack.gh
    det = np.linalg.det(gh.char.delta(1j * gh.omega0))
    assert abs(det) < 1e-8


def test_resolvent_pure_point_case(fhn_pack):
    ch = fhn_pack.gh.char
    lam = 2j * fhn_pack.gh.omega0
    w0 = np.array([0.3, -0.7])
    v = resolvent_case(ch, lam, w0)
    assert np.allclose(v.at_zero(), np.linalg.solve(ch.delta(lam), w0))
    assert v.degree == 0


def _subst_residual(ch, lam, v, w0, wpoly):
    """Residuals of (lam - A_sunstar)(v0,v) = (w0,w) on a theta grid."""
    h = max(ch.delays) if ch.delays else 1.0
    thetas = np.linspace(-h, 0.0, 17)
    dv = v.derivative()
    w = HistFn.of(lam, wpoly) if wpoly else None
    worst = 0.0
    for th in thetas:
        wval = w(th) if w is not None else np.zeros(ch.n)
        worst = max(worst, np.max(np.abs(lam * v(th) - dv(th) - wval)))
    head = lam * v(0.0)
    for Mj, tau in zip(ch.M, ch.taus):
        head = head - Mj @ v(-tau)
    worst_head = np.max(np.abs(head - np.asarray(w0, dtype=complex)))
    return worst, worst_head


def test_resolvent_substitution_oracle(rng, fhn_pack):
    ch = fhn_pack.gh.char
    lam = 3j * fhn_pack.gh.omega0
    w0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    wpoly = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
    v = resolvent_case(ch, lam, w0 + wpoly[0], wpoly)
    worst, worst_head = _subst_residual(ch, lam, v, w0 + wpoly[0], wpoly)
    assert worst < 1e-9
    assert worst_head < 1e-9


def test_resolvent_cor24_cross_check(rng, fhn_pack):
    # right-hand side in the re-expanded representation: the output of the
    # general solve must match the printed special-case formula
    ch = fhn_pack.gh.char
    lam = 2j * fhn_pack.gh.omega0
    D = ch.delta(lam)
    Dinv = np.linalg.inv(D)
    M = rng.normal(size=2) + 1j * rng.normal(size=2)
    eta_h = rng.normal(size=2) + 1j * rng.normal(size=2)
    xi_h = rng.normal(size=2) + 1j * rng.normal(size=2)
    # w(theta) = e^(lam th) Dinv (M + [D' - th D] eta_h + [D'' - th^2 D] xi_h)
    a0 = Dinv @ (M + ch.delta(lam, 1) @ eta_h + ch.delta(lam, 2) @ xi_h)
    a1 = -eta_h
    a2 = -xi_h
    v = resolvent_case(ch, lam, a0, [a0, a1, a2])
    thetas = np.linspace(-ch.delays[-1], 0.0, 9)
    for th in thetas:
        printed = cmath.exp(lam * th) * (
            Dinv @ (
                (ch.delta(lam, 1) - th * D) @ a0
                - 0.5 * (ch.delta(lam, 2) - th * th * D) @ eta_h
                - (ch.delta(lam, 3) - th ** 3 * D) @ xi_h / 3.0
            )
        )
        assert np.max(np.abs(v(th) - printed)) < 1e-12 * max(1.0, np.max(np.abs(printed)))


def test_resolvent_resonant_shift_rejected(fhn_pack):
    gh = fhn_pack.gh
    with pytest.raises(ResonanceError):
        resolvent_case(gh.char, 1j * gh.omega0, np.array([1.0, 0.0]))


def test_bordered_zero_rhs(fhn_pack):
    out = bordered_inv_dde(fhn_pack.gh, np.zeros(2))
    assert np.max(np.abs(out.at_zero())) < 1e-14


def test_bordered_consistency_pairing(rng, fhn_pack):
    gh = fhn_pack.gh
    lam = 1j * gh.omega0
    # build a Fredholm-consistent rhs: eta with p^T(eta + D' xi0) = 0
    xi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    eta = rng.normal(size=2) + 1j * rng.normal(size=2)
    corr = gh.p @ (eta + gh.char.delta(lam, 1) @ xi0)
    eta = eta - corr * gh.q / (gh.p @ gh.q)
    v = bordered_inv_dde(gh, eta, [xi0], check=True)
    pairing = sun_pairing(gh.char, lam, gh.p, v)
    assert abs(pairing) < 1e-9
    # substitution residual of the full operator equation
    worst, worst_head = _subst_residual(gh.char, lam, v, eta + xi0, [xi0])
    assert worst < 1e-9 and worst_head < 1e-9
    with pytest.raises(ConvergenceError):
        bordered_inv_dde(gh, eta + gh.q, [xi0], check=True)


def test_hist_orthogonality_of_singular_solves(fhn_pack):
    ctx = fhn_pack.ctx
    lam = 1j * ctx.omega0
    for key in ("H2100", "H3200", "H4300", "H2101"):
        h = ctx.C[key]
        scale = max(1.0, np.max(np.abs(h.at_zero())))
        assert abs(sun_pairing(ctx.char, lam, ctx.p, h)) < 1e-9 * scale, key


def test_hist_translation_invariance(fhn_pack):
    # every regular solve satisfies lam v - v' = w with the stored rhs shape;
    # spot-check the pure-coefficient identities via the operator rows
    ctx = fhn_pack.ctx
    ch = ctx.char
    for key, rate_mult in (("H2000", 2), ("H3000", 3), ("H1100", 0)):
        h = ctx.C[key]
        lam = 1j * rate_mult * ctx.omega0
        assert abs(h.rate - lam) < 1e-12
        # boundary row: lam v(0) - sum_j M_j v(-tau_j) = w0 with w0 the
        # multilinear part; for these keys w(theta) = 0 so v' = lam v exactly
        dv = h.derivative()
        for th in (-1.0, -0.3, 0.0):
            assert np.max(np.abs(dv(th) - lam * h(th))) < 1e-10


def test_fhn_quadratic_form_hand_value(fhn_pack):
    # B(phi, phi) with phi = e^(i w0 th) q: only the u1^2 term contributes
    gh = fhn_pack.gh
    phi = HistFn.of(1j * gh.omega0, [gh.q])
    got = dde_multilinear(fhn_pack.model, gh, [phi, phi], backend="exact",
                          exact_factory=fhn_pack.bm.exact_factory)
    c, alpha = 2.0528, gh.alpha0[1]
    expect = np.array([2.0 * (c + alpha) * gh.q[0] ** 2, 0.0])
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_dde_multilinear_linearity(rng, fhn_pack):
    gh = fhn_pack.gh
    w0 = gh.omega0

    def rand_hist():
        return HistFn.of(1j * w0, [rng.normal(size=2) + 1j * rng.normal(size=2)])

    u, v, w = rand_hist(), rand_hist(), rand_hist()
    c1, c2 = 1.3 - 0.4j, -0.2 + 0.9j
    args = dict(backend="exact", exact_factory=fhn_pack.bm.exact_factory)
    lhs = dde_multilinear(fhn_pack.model, gh, [c1 * u + c2 * v, w], **args)
    rhs = c1 * dde_multilinear(fhn_pack.model, gh, [u, w], **args) \
        + c2 * dde_multilinear(fhn_pack.model, gh, [v, w], **args)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_fhn_l2_regression(fhn_pack):
    assert abs(fhn_pack.crit.l2 - (-15.6733)) < 1e-3
    assert abs(fhn_pack.crit.l1) < 1e-10


def test_linear_dde_zero_coefficients():
    from ghlpc.dde import gh_point_dde_at, make_dde_context
    from ghlpc.ghode import run_critical
    from ghlpc.modeldsl import parse_model

    model = parse_model(
        "state x\nparam a b\ndelay tau = 1.0\n"
        "dx = -(1.5707963267948966)*x(t - tau) + 0*a + 0*b\n"
    )
    gh = gh_point_dde_at(model, np.zeros(2), np.pi / 2.0)
    ctx = make_dde_context(model, gh, backend="jets")
    with pytest.warns(UserWarning):  # degenerate Re c2 = 0 is reported
        crit = run_critical(ctx)
    assert abs(crit.c1) < 1e-12 and abs(crit.c2) < 1e-12 and abs(crit.c3) < 1e-12


def test_ode_dde_cross_validation(bk_pack, bk_dde_pack):
    rel = lambda a, b: abs(a - b) / max(1.0, abs(b))
    assert rel(bk_dde_pack.crit.c1, bk_pack.crit.c1) < 1e-9
    assert rel(bk_dde_pack.crit.c2, bk_pack.crit.c2) < 1e-9
    assert rel(bk_dde_pack.crit.c3, bk_pack.crit.c3) < 1e-9
    assert rel(bk_dde_pack.pc.g3201, bk_pack.pc.g3201) < 1e-9
    for mu in ("10", "01", "02", "11", "03"):
        dK = np.max(np.abs(bk_dde_pack.pc.K[mu] - bk_pack.pc.K[mu]))
        assert dK < 1e-9 * max(1.0, np.max(np.abs(bk_pack.pc.K[mu]))), mu
        assert rel(bk_dde_pack.pc.b1[mu], bk_pack.pc.b1[mu]) < 1e-9
        assert rel(bk_dde_pack.pc.b2[mu], bk_pack.pc.b2[mu]) < 1e-9


def test_dde_heads_match_ode_vectors(bk_pack, bk_dde_pack):
    for idx, vec in bk_pack.cs.Hv.items():
        head = bk_dde_pack.cs.Hv[idx]
        assert np.max(np.abs(head - vec)) < 1e-7 * max(1.0, np.max(np.abs(vec))), idx


def test_conjugate_symmetry_hist(fhn_pack):
    # diagonal coefficients H_{nn.l} are real-valued functions
    for key in ("H1100", "H2200", "H3300"):
        h = fhn_pack.ctx.C[key]
        for th in (-1.5, -0.4, 0.0):
            assert np.max(np.abs(np.imag(h(th)))) < 1e-9


def test_regular_solve_reconstructs_rhs_function(fhn_pack):
    # lam*v - v' must reproduce the j-term part of the right-hand side
    ctx = fhn_pack.ctx
    c1 = ctx.C["c1"]
    for key, rate_mult, terms in (
        ("H3100", 2, ((-6.0 * c1, "H2000"),)),
        ("H2001", 2, ((-2.0 * 1j * fhn_pack.pc.b1["01"], "H2000"),)),
    ):
        v = ctx.C[key]
        lam = 1j * rate_mult * ctx.omega0
        dv = v.derivative()
        for th in (-1.5, -0.7, 0.0):
            w_expect = sum(c * ctx.C[k](th) for c, k in terms)
            got = lam * v(th) - dv(th)
            assert np.max(np.abs(got - w_expect)) < 1e-9, key


def test_resolvent_rhs_degree_capability(fhn_pack):
    from ghlpc.errors import CapabilityError

    ch = fhn_pack.gh.char
    lam = 2j * fhn_pack.gh.omega0
    vecs = [np.ones(2)] * 5
    with pytest.raises(CapabilityError):
        resolvent_case(ch, lam, np.ones(2), vecs)
    with pytest.raises(CapabilityError):
        bordered_inv_dde(fhn_pack.gh, np.ones(2), vecs, check=False)
    with pytest.raises(CapabilityError):
        ch.delta(lam, 5)


class _LinearGH:
    """Stand-in DDE GH point whose refinement objective is linear:
    det Delta(i omega) = (alpha1 - 1) + i (omega - 2), so one Newton step
    lands on the root (alpha1, omega) = (1, 2)."""

    def __init__(self, model, alpha, omega, x_guess=None):
        self.alpha0, self.omega0 = np.asarray(alpha, dtype=float), omega
        self.char = self

    def delta(self, z):
        return np.array([[self.alpha0[0] - 1.0 + 1j * (z.imag - 2.0)]])

    def validate(self):
        pass


def _linear_l1(model, gh, **kwargs):
    return gh.alpha0[1] - 3.0


def test_refine_gh_dde_converges_on_last_iteration(monkeypatch):
    from ghlpc import dde

    monkeypatch.setattr(dde, "gh_point_dde_at", _LinearGH)
    monkeypatch.setattr(dde, "first_lyapunov_dde", _linear_l1)
    gh = dde.refine_gh_dde(None, [0.5, 2.5], 1.5, maxit=1)
    assert np.allclose([*gh.alpha0, gh.omega0], [1.0, 3.0, 2.0], atol=1e-12)
    with pytest.raises(ConvergenceError, match="stalled"):
        dde.refine_gh_dde(None, [0.5, 2.5], 1.5, maxit=0)


def test_refine_gh_dde_line_search_all_trials_fail(monkeypatch):
    from ghlpc import dde

    calls = []

    def flaky(model, gh, **kwargs):
        # the start point and the 3 Jacobian columns succeed, every trial fails
        calls.append(1)
        if len(calls) > 4:
            raise ConvergenceError("injected")
        return _linear_l1(model, gh)

    monkeypatch.setattr(dde, "gh_point_dde_at", _LinearGH)
    monkeypatch.setattr(dde, "first_lyapunov_dde", flaky)
    with pytest.raises(ConvergenceError, match="every line-search trial failed"):
        dde.refine_gh_dde(None, [0.5, 2.5], 1.5)
