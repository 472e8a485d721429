"""Independent verification of the predictors.

ODE predictions are corrected onto the true fold-of-cycles point by Newton on
a single-shooting system (periodicity, a linearized Poincare phase condition
through the seed, the fold condition on the monodromy matrix, a null-vector
normalizer, and an anchor pinning the point along the curve).  DDE
predictions are assessed by the sup-norm residual of the interpolated
periodic orbit in the delay equation, a documented substitution for a DDE
boundary-value corrector.  The amplitude-system oracle re-solves the
truncated double-equilibrium system by Newton, and the homological-equation
oracle evaluates both sides of the invariance identity directly against the
model, independent of every term table used to build the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, EvaluationError
from .modeldsl import (
    ModelDef,
    compile_mixed_hessian,
    compile_param_jacobian,
    compile_rhs,
    compile_state_hessian,
    compile_state_jacobian,
    eval_model,
)
from .predictor import CoeffSet, beta_of_eps, k_of_beta, orbit_of_eps, period_of_eps

INTEGRATE_RTOL = 1e-11
INTEGRATE_ATOL = 1e-12
NEWTON_TOL = 1e-9


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on first use.

    Only verification integrates, so importing ``ghlpc`` (and running every
    other command) does not pay for loading ``scipy.integrate``.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray              # (len(t), n)
    monodromy: np.ndarray | None = None


def integrate(model: ModelDef, x0, alpha, t_span, with_variational: bool = False,
              rtol: float = INTEGRATE_RTOL, atol: float = INTEGRATE_ATOL,
              t_eval=None) -> Trajectory:
    """Adaptive high-order Runge-Kutta flow, optionally with the variational
    equations; the Jacobian is the exact compiled derivative of the model."""
    rhs = compile_rhs(model)
    n = model.n
    x0 = np.asarray(x0, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if with_variational:
        jac = compile_state_jacobian(model, None)

        def f(t, y):
            x = y[:n]
            J = jac(x, alpha)
            phi = y[n:].reshape(n, n)
            return np.concatenate([rhs(x, alpha), (J @ phi).ravel()])

        y0 = np.concatenate([x0, np.eye(n).ravel()])
    else:
        def f(t, y):
            return rhs(y, alpha)

        y0 = x0
    sol = solve_ivp(f, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise ConvergenceError(f"integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise EvaluationError("non-finite state during integration")
    xs = sol.y[:n].T
    M = sol.y[n:, -1].reshape(n, n) if with_variational else None
    return Trajectory(t=sol.t, x=xs, monodromy=M)


def _flow(model, x0, alpha, T, rtol):
    tr = integrate(model, x0, alpha, (0.0, T), with_variational=True,
                   rtol=rtol, atol=rtol * 0.1, t_eval=[T / 2.0, T])
    return tr.x[-1], tr.monodromy, tr.x[0]


@dataclass
class LpcSeed:
    x0: np.ndarray
    T: float
    alpha: np.ndarray
    alpha_tangent: np.ndarray
    eps: float


def lpc_seed(cs: CoeffSet, eps: float, order: str = "higher") -> LpcSeed:
    beta = beta_of_eps(cs.crit, cs.pc, eps, order)
    alpha = cs.alpha0 + k_of_beta(cs.pc, beta, order)
    T = period_of_eps(cs.crit, cs.pc, eps, order)
    x0 = orbit_of_eps(cs, eps, np.array([0.0]), beta=beta, order=order)[0]
    h = 1e-6 * max(eps, 1e-3)
    a_plus = cs.alpha0 + k_of_beta(
        cs.pc, beta_of_eps(cs.crit, cs.pc, eps + h, order), order)
    a_minus = cs.alpha0 + k_of_beta(
        cs.pc, beta_of_eps(cs.crit, cs.pc, eps - h, order), order)
    tangent = (a_plus - a_minus) / (2.0 * h)
    nt = np.linalg.norm(tangent)
    if nt > 0:
        tangent = tangent / nt
    return LpcSeed(x0=x0, T=T, alpha=alpha, alpha_tangent=tangent, eps=eps)


@dataclass
class CorrectedLPC:
    x0_cycle: np.ndarray
    T: float
    alpha: np.ndarray
    v: np.ndarray
    newton_residual: float
    iterations: int


class _ShootingDerivatives:
    """First and second variational flow for exact shooting Jacobians.

    Integrates, alongside the state, the monodromy Phi, its derivatives with
    respect to the initial point (W_k) and parameters (V_a), and the
    parameter sensitivities s_a.  Near a generalized Hopf point the fold
    system is too ill-conditioned for finite-difference Jacobians, so the
    exact blocks matter.
    """

    def __init__(self, model: ModelDef):
        self.n = model.n
        self.rhs = compile_rhs(model)
        self.jac = compile_state_jacobian(model, None)
        self.hess = compile_state_hessian(model)
        self.fpar = compile_param_jacobian(model)
        self.mixed = compile_mixed_hessian(model)

    def flow(self, x0, alpha, T, rtol):
        n = self.n
        sizes = [n, n * n, n * n * n, 2 * n, 2 * n * n]
        offs = np.cumsum([0] + sizes)

        def unpack(y):
            x = y[offs[0]:offs[1]]
            Phi = y[offs[1]:offs[2]].reshape(n, n)
            W = y[offs[2]:offs[3]].reshape(n, n, n)     # W[k] = dPhi/dx0_k
            s = y[offs[3]:offs[4]].reshape(2, n)        # s[a] = dx/dalpha_a
            V = y[offs[4]:offs[5]].reshape(2, n, n)     # V[a] = dPhi/dalpha_a
            return x, Phi, W, s, V

        def f(t, y):
            x, Phi, W, s, V = unpack(y)
            A = self.jac(x, alpha)
            H = self.hess(x, alpha)
            Cm = self.mixed(x, alpha)
            dx = self.rhs(x, alpha)
            dPhi = A @ Phi
            dW = np.einsum("ijl,lk,jm->kim", H, Phi, Phi) + np.einsum(
                "ij,kjm->kim", A, W
            )
            dp = self.fpar(x, alpha)
            ds = (A @ s.T + dp).T
            dV = (
                np.einsum("ijl,al,jm->aim", H, s, Phi)
                + np.einsum("ija,jm->aim", Cm, Phi)
                + np.einsum("ij,ajm->aim", A, V)
            )
            return np.concatenate(
                [dx, dPhi.ravel(), dW.ravel(), ds.ravel(), dV.ravel()]
            )

        y0 = np.zeros(offs[-1])
        y0[:n] = x0
        y0[offs[1]:offs[2]] = np.eye(n).ravel()
        sol = solve_ivp(f, (0.0, T), y0, method="DOP853", rtol=rtol,
                        atol=rtol * 0.1, t_eval=[T])
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise ConvergenceError(f"variational integration failed: {sol.message}")
        return unpack(sol.y[:, -1])


def correct_lpc(model: ModelDef, seed: LpcSeed, tol: float = NEWTON_TOL,
                maxit: int = 12, rtol: float = INTEGRATE_RTOL,
                section: LpcSeed | None = None) -> CorrectedLPC:
    """Newton on the extended shooting system for a fold of cycles.

    `seed` is the initial guess; `section` (default: the seed) fixes the
    phase plane and the along-curve anchor, so corrections started from
    different guesses against the same section solve the same system.
    """
    n = model.n
    if section is None:
        section = seed
    rhs = compile_rhs(model)
    jacf = compile_state_jacobian(model, None)
    deriv = _ShootingDerivatives(model)
    f_seed = rhs(section.x0, section.alpha)
    t_anchor = section.alpha_tangent
    # the first residual evaluates this same flow, so it reuses it
    seed_flow = _flow(model, seed.x0, seed.alpha, seed.T, rtol)
    wM, vM = np.linalg.eig(seed_flow[1])
    v0 = np.real(vM[:, int(np.argmin(np.abs(wM - 1.0)))])
    v0 = v0 / np.linalg.norm(v0)

    def guard(u):
        T, alpha = u[n], u[n + 1:n + 3]
        if not (0.2 * seed.T < T < 5.0 * seed.T) or np.linalg.norm(
            alpha - section.alpha
        ) > 0.5 * (1.0 + np.linalg.norm(section.alpha)):
            raise ConvergenceError(
                f"LPC correction left the basin (T = {T:.3g}, alpha = {alpha})"
            )

    def residual(u, flow=None):
        guard(u)
        x0, T, alpha, v = u[:n], u[n], u[n + 1:n + 3], u[n + 3:]
        phiT, M, x_half = flow or _flow(model, x0, alpha, T, rtol)
        r = np.concatenate([
            phiT - x0,
            [f_seed @ (x0 - section.x0)],
            (M - np.eye(n)) @ v,
            [v @ v - 1.0],
            [t_anchor @ (alpha - section.alpha)],
        ])
        amp = np.linalg.norm(x_half - x0)
        return r, amp

    def newton_system(u):
        x0, T, alpha, v = u[:n], u[n], u[n + 1:n + 3], u[n + 3:]
        x, M, W, s, V = deriv.flow(x0, alpha, T, rtol)
        fT = rhs(x, alpha)
        r = np.concatenate([
            x - x0,
            [f_seed @ (x0 - section.x0)],
            (M - np.eye(n)) @ v,
            [v @ v - 1.0],
            [t_anchor @ (alpha - section.alpha)],
        ])
        J = np.zeros((2 * n + 3, 2 * n + 3))
        J[:n, :n] = M - np.eye(n)
        J[:n, n] = fT
        J[:n, n + 1:n + 3] = s.T
        J[n, :n] = f_seed
        J[n + 1:2 * n + 1, :n] = np.einsum("kij,j->ik", W, v)
        J[n + 1:2 * n + 1, n] = jacf(x, alpha) @ M @ v
        J[n + 1:2 * n + 1, n + 1:n + 3] = np.einsum("aij,j->ia", V, v)
        J[n + 1:2 * n + 1, n + 3:] = M - np.eye(n)
        J[2 * n + 1, n + 3:] = 2.0 * v
        J[2 * n + 2, n + 1:n + 3] = t_anchor
        return r, J

    u = np.concatenate([seed.x0, [seed.T], seed.alpha, v0])
    r, amp = residual(u, seed_flow)
    res0 = np.linalg.norm(r)
    stagnant = 0
    its = 0
    for its in range(maxit):
        res = np.linalg.norm(r)
        if res < tol:
            break
        if not np.isfinite(res) or res > 1e6 * max(1.0, res0):
            raise ConvergenceError(f"LPC correction diverged (residual {res:.2e})")
        r_big, J = newton_system(u)
        try:
            step = np.linalg.solve(J, -r_big)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular shooting Jacobian") from None
        lam = 1.0
        while True:
            un = u + lam * step
            try:
                rn, ampn = residual(un)
            except ConvergenceError:
                if lam <= 0.125:
                    raise
                lam *= 0.5
                continue
            if np.linalg.norm(rn) < res or lam <= 0.125:
                break
            lam *= 0.5
        resn = np.linalg.norm(rn)
        # accept an integration-accuracy floor just above the target
        stagnant = stagnant + 1 if resn > 0.5 * res else 0
        u, r, amp = un, rn, ampn
        if stagnant >= 2 and resn < 10.0 * tol:
            break
    res_final = np.linalg.norm(r)
    if res_final >= 10.0 * tol:
        raise ConvergenceError(
            f"LPC correction stalled at residual {res_final:.2e}"
        )
    if amp < 0.05 * seed.eps:
        raise ConvergenceError(
            "correction collapsed onto the equilibrium (Hopf point), "
            f"cycle amplitude {amp:.2e}"
        )
    return CorrectedLPC(
        x0_cycle=u[:n], T=float(u[n]), alpha=u[n + 1:n + 3], v=u[n + 3:],
        newton_residual=float(np.linalg.norm(r)), iterations=its,
    )


# --- DDE residual metric ------------------------------------------------------

def _trig_coeffs(orbit: np.ndarray):
    N = orbit.shape[0]
    c = np.fft.fft(orbit, axis=0) / N
    k = np.fft.fftfreq(N, d=1.0 / N)
    return c, k


def _trig_eval(c, k, psis, deriv: bool = False):
    basis = np.exp(1j * np.outer(psis, k))
    if deriv:
        basis = basis * (1j * k)
    return (basis @ c).real


def dde_residual(model: ModelDef, alpha, T: float, orbit: np.ndarray,
                 n_fine: int = 256) -> float:
    """Sup-norm DDE residual of the trig-interpolated T-periodic orbit."""
    c, k = _trig_coeffs(orbit)
    mag = np.abs(c).max(axis=1)
    kk = np.abs(k)
    tail = mag[kk >= 0.75 * kk.max()].max()
    if tail > 1e-6 * max(mag.max(), 1e-300):
        raise EvaluationError(
            f"orbit grid too coarse for trig interpolation (tail {tail:.2e})"
        )
    rhs = compile_rhs(model)
    alpha = np.asarray(alpha, dtype=float)
    t = np.linspace(0.0, T, n_fine, endpoint=False)
    psi = 2.0 * np.pi * t / T
    x_now = _trig_eval(c, k, psi)                     # (G, n)
    xdot = _trig_eval(c, k, psi, deriv=True) * (2.0 * np.pi / T)
    if model.is_dde:
        xd = [
            _trig_eval(c, k, 2.0 * np.pi * (t - tau) / T).T
            for tau in model.delays
        ]
        fvals = rhs(x_now.T, xd, alpha)
    else:
        fvals = rhs(x_now.T, alpha)
    resid = xdot.T - fvals
    return float(np.max(np.linalg.norm(resid, axis=0)))


# --- convergence studies --------------------------------------------------------

def fit_loglog(eps: np.ndarray, err: np.ndarray, floor, ceil: float = 1e-1):
    """Least-squares log-log slope over the uncontaminated window.

    `floor` may be per-point, e.g. a roundoff-noise estimate for each sample.
    """
    eps = np.asarray(eps, dtype=float)
    err = np.asarray(err, dtype=float)
    keep = (err > floor) & (err < ceil) & np.isfinite(err)
    if keep.sum() < 4:
        raise ConvergenceError(
            f"only {int(keep.sum())} usable points in the fit window"
        )
    x = np.log(eps[keep])
    y = np.log(err[keep])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit_res = float(np.sqrt(res[0] / keep.sum())) if res.size else 0.0
    return float(coef[0]), fit_res, keep


@dataclass
class ConvergenceReport:
    kind: str
    metric: str
    eps: np.ndarray
    errors_first: np.ndarray
    errors_higher: np.ndarray
    slope_first: float
    slope_higher: float
    fit_residual_first: float
    fit_residual_higher: float
    converged: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def convergence_study(cs: CoeffSet, eps_grid=None, n_psi: int = 64,
                      rtol: float = 1e-12, tol: float = 1e-10) -> ConvergenceReport:
    """Predictor error vs epsilon for both orders.

    ODE: relative error against the Newton-corrected fold-of-cycles point,
    both orders measured against the same corrected solution (the anchor is
    taken from the higher-order prediction, so the corrected point does not
    depend on which order seeded it).  DDE: sup-norm residual of the
    predicted orbit in the delay equation.
    """
    if eps_grid is None:
        eps_grid = np.geomspace(0.01, 0.15, 9) if cs.kind == "ode" else \
            np.geomspace(0.01, 0.2, 9)
    eps_grid = np.asarray(eps_grid, dtype=float)
    err_f, err_h, converged = [], [], []
    details: dict = {}
    psi = np.linspace(0.0, 2.0 * np.pi, n_psi, endpoint=False)
    if cs.kind == "ode":
        # fitted metric: relative error of the parameter prediction.  The
        # corrected period and cycle point are recorded alongside but carry
        # the fold's O(sqrt(tol)) soft-mode uncertainty, so they would
        # contaminate the fit; the period gets its own slope check.
        dT_f, dT_h, dx_f, dx_h = [], [], [], []
        for eps in eps_grid:
            seed_h = lpc_seed(cs, eps, "higher")
            seed_f = lpc_seed(cs, eps, "first")
            try:
                corr = correct_lpc(cs.model, seed_h, tol=tol, rtol=rtol)
                converged.append(True)
            except ConvergenceError:
                converged.append(False)
                for bucket in (err_f, err_h, dT_f, dT_h, dx_f, dx_h):
                    bucket.append(np.nan)
                continue
            nrm = np.linalg.norm(corr.alpha)
            for seed, bucket, bt, bx in (
                (seed_f, err_f, dT_f, dx_f),
                (seed_h, err_h, dT_h, dx_h),
            ):
                bucket.append(np.linalg.norm(seed.alpha - corr.alpha) / nrm)
                bt.append(abs(seed.T - corr.T))
                bx.append(np.linalg.norm(seed.x0 - corr.x0_cycle))
        details = {
            "dT_first": np.array(dT_f), "dT_higher": np.array(dT_h),
            "dx_first": np.array(dx_f), "dx_higher": np.array(dx_h),
        }
        metric = "alpha-relative-error-vs-corrected"
        floor = 10.0 * tol
    else:
        for eps in eps_grid:
            for order, bucket in (("first", err_f), ("higher", err_h)):
                beta = beta_of_eps(cs.crit, cs.pc, eps, order)
                alpha = cs.alpha0 + k_of_beta(cs.pc, beta, order)
                T = period_of_eps(cs.crit, cs.pc, eps, order)
                orb = orbit_of_eps(cs, eps, psi, beta=beta, order=order)
                bucket.append(dde_residual(cs.model, alpha, T, orb))
            converged.append(True)
        metric = "dde-orbit-residual"
        floor = 1e-12
    err_f = np.array(err_f)
    err_h = np.array(err_h)
    sf, rf, _ = fit_loglog(eps_grid, err_f, floor)
    sh, rh, _ = fit_loglog(eps_grid, err_h, floor)
    return ConvergenceReport(
        kind=cs.kind, metric=metric, eps=eps_grid,
        errors_first=err_f, errors_higher=err_h,
        slope_first=sf, slope_higher=sh,
        fit_residual_first=rf, fit_residual_higher=rh,
        converged=converged, details=details,
    )


# --- amplitude-system oracle ---------------------------------------------------

def amplitude_oracle(d2: float, d3: float, a3201: float, rho: float,
                     tol: float = 1e-14, maxit: int = 50) -> np.ndarray:
    """Newton solve of the truncated double-equilibrium system P(rho, beta) = 0.

    The tolerance is relative to the size of beta itself (~ rho^2), so the
    solve stays meaningful at small amplitudes where beta is tiny.
    """
    r2 = rho * rho
    beta = np.array([d2 * r2 * r2, -2.0 * d2 * r2])

    def P(b):
        rc2 = d2 + a3201 * b[1]
        return np.array([
            b[0] + b[1] * r2 + rc2 * r2 * r2 + d3 * r2 ** 3,
            b[1] + 2.0 * rc2 * r2 + 3.0 * d3 * r2 * r2,
        ])

    J = np.array([
        [1.0, r2 + a3201 * r2 * r2],
        [0.0, 1.0 + 2.0 * a3201 * r2],
    ])
    if rho == 0.0:
        return np.zeros(2)
    for _ in range(maxit):
        r = P(beta)
        if np.linalg.norm(r) < tol * max(r2, np.linalg.norm(beta)):
            return beta
        beta = beta - np.linalg.solve(J, r)
    raise ConvergenceError(f"amplitude oracle stalled at rho = {rho:g}")


# --- homological-equation oracle -------------------------------------------------

def _b_poly(pc, beta1: float, beta2: float, which: str) -> float:
    b = pc.b1 if which == "b1" else pc.b2
    return (
        b["10"] * beta1
        + b["01"] * beta2
        + b["11"] * beta1 * beta2
        + 0.5 * b["02"] * beta2 * beta2
        + b["03"] * beta2 ** 3 / 6.0
    )


def normal_form_rhs(cs: CoeffSet, w: complex, beta) -> complex:
    """dw/dt of the truncated normal form at (w, beta)."""
    b1v, b2v = float(beta[0]), float(beta[1])
    crit, pc = cs.crit, cs.pc
    aw2 = (w * np.conj(w)).real
    lam = 1j * cs.omega0 + b1v + 1j * _b_poly(pc, b1v, b2v, "b1")
    cc1 = b2v + 1j * (crit.c1.imag + _b_poly(pc, b1v, b2v, "b2"))
    cc2 = crit.c2 + pc.g3201 * b2v
    return (lam + cc1 * aw2 + cc2 * aw2 ** 2 + crit.c3 * aw2 ** 3) * w


def _h_series(cs: CoeffSet, w: complex, beta, theta: float | None,
              d_dw: bool = False) -> np.ndarray:
    """H(w, wbar, beta) or its w-derivative; theta selects the DDE history
    point (None = stored head values)."""
    wb = np.conj(w)
    b1v, b2v = float(beta[0]), float(beta[1])
    nvec = cs.x0.size

    def coeff(idx):
        if theta is None:
            return cs.Hv[idx]
        val = cs.Hfull[idx]
        return val(theta) if hasattr(val, "poly") else np.asarray(val, dtype=complex)

    q = cs.q if theta is None else cs.q * np.exp(1j * cs.omega0 * theta)
    total = np.zeros(nvec, dtype=complex)
    if d_dw:
        total += q
    else:
        total += q * w + np.conj(q) * wb
    for (n, m, k, l) in cs.Hv:
        H = coeff((n, m, k, l))
        wgt = (b1v ** k) * (b2v ** l) / (
            math.factorial(n) * math.factorial(m)
            * math.factorial(k) * math.factorial(l)
        )
        if wgt == 0.0:
            continue
        pairs = [(n, m, H)]
        if n != m:
            pairs.append((m, n, np.conj(H)))
        for nn, mm, HH in pairs:
            if d_dw:
                if nn >= 1:
                    total += wgt * nn * HH * w ** (nn - 1) * wb ** mm
            else:
                total += wgt * HH * w ** nn * wb ** mm
    return total


def homological_residual(cs: CoeffSet, w: complex, beta) -> float:
    """Norm of H_w G + conj - F(x0 + H, alpha0 + K) at one (w, beta)."""
    beta = np.asarray(beta, dtype=float)
    G = normal_form_rhs(cs, w, beta)
    alpha = cs.alpha0 + k_of_beta(cs.pc, beta, "higher")
    Hw0 = _h_series(cs, w, beta, None, d_dw=True)
    lhs = 2.0 * np.real(Hw0 * G)
    if cs.kind == "ode":
        x = cs.x0 + np.real(_h_series(cs, w, beta, None))
        rhs = np.array(eval_model(cs.model, list(x), (), list(alpha)), dtype=float)
    else:
        x_now = cs.x0 + np.real(_h_series(cs, w, beta, 0.0))
        xd = [
            cs.x0 + np.real(_h_series(cs, w, beta, -tau))
            for tau in cs.model.delays
        ]
        rhs = np.array(
            eval_model(cs.model, list(x_now), [list(v) for v in xd], list(alpha)),
            dtype=float,
        )
    return float(np.linalg.norm(lhs - rhs))
