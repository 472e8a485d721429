"""Dense complex linear algebra for the ODE pipeline.

Provides the Hopf eigenpair with a deterministic phase fix, resolvent solves
(sigma*I - A)^(-1) guarded against near-resonances, the bordered inverse used
for all singular solves at +/- i*omega0, and Newton refinement of generalized
Hopf points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousEigenvalueError,
    ConvergenceError,
    ResonanceError,
)
from .modeldsl import ModelDef, compile_rhs, compile_state_jacobian

RESONANCE_RTOL = 1e-8
FREDHOLM_RTOL = 1e-9
NEWTON_TOL = 1e-10
NEWTON_MAXIT = 30


@dataclass
class GHPointODE:
    x0: np.ndarray
    alpha0: np.ndarray
    omega0: float
    q: np.ndarray
    p: np.ndarray
    A: np.ndarray

    def validate(self, eq_residual: float, tol: float = 1e-8) -> None:
        n = self.A.shape[0]
        if eq_residual > tol:
            raise ConvergenceError(f"equilibrium residual {eq_residual:.2e}")
        r1 = np.linalg.norm(self.A @ self.q - 1j * self.omega0 * self.q)
        r2 = np.linalg.norm(self.A.T @ self.p + 1j * self.omega0 * self.p)
        if max(r1, r2) > tol * (1.0 + np.linalg.norm(self.A)):
            raise ConvergenceError(f"eigenpair residual {max(r1, r2):.2e}")
        if abs(np.vdot(self.q, self.q) - 1.0) > 1e-10 or abs(
            np.vdot(self.p, self.q) - 1.0
        ) > 1e-10:
            raise ConvergenceError("eigenvector normalization violated")


def _phase_fix(q: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(q)))
    return q * (np.conj(q[k]) / abs(q[k]))


def _eig_pair(A: np.ndarray, omega_guess: float):
    """Right/left eigenpair for the eigenvalue nearest i*omega_guess (Im > 0)."""
    w, V = np.linalg.eig(A)
    scale = max(1.0, np.linalg.norm(A, ord=2))
    target = 1j * omega_guess
    upper = np.flatnonzero(w.imag > 0.0)
    if upper.size == 0:
        raise AmbiguousEigenvalueError("no eigenvalue with positive imaginary part")
    k = upper[int(np.argmin(np.abs(w[upper] - target)))]
    lam = w[k]
    if abs(lam - target) > 0.5 * max(abs(target), abs(lam), 1e-3 * scale):
        raise AmbiguousEigenvalueError(
            f"no eigenvalue near i*{omega_guess:g}; nearest is {lam:g}"
        )
    others = np.delete(np.arange(len(w)), k)
    gap = np.min(np.abs(w[others] - lam)) if others.size else np.inf
    if gap < 1e-6 * scale:
        raise AmbiguousEigenvalueError(
            f"eigenvalue {lam:g} not well separated (gap {gap:.2e})"
        )
    q = V[:, k]
    q = q / np.sqrt(np.vdot(q, q).real)
    q = _phase_fix(q)
    wl, Vl = np.linalg.eig(A.T)
    kl = int(np.argmin(np.abs(wl - lam)))
    v = Vl[:, kl]  # A^T v = lam v, so conj(v) is the adjoint vector
    prod = v @ q
    if abs(prod) < 1e-8 * np.linalg.norm(v):
        raise AmbiguousEigenvalueError("eigenvalue numerically non-simple")
    p = np.conj(v / prod)
    return lam, q, p


def hopf_eigenpair(A: np.ndarray, omega_guess: float):
    """(omega0, q, p) with qbar^T q = pbar^T q = 1 and phase-fixed q."""
    lam, q, p = _eig_pair(np.asarray(A, dtype=float), omega_guess)
    return lam.imag, q, p


def resolvent_solve(A: np.ndarray, sigma: complex, rhs: np.ndarray,
                    eigs: np.ndarray | None = None) -> np.ndarray:
    """(sigma*I - A)^(-1) rhs, refusing near-resonant shifts."""
    A = np.asarray(A, dtype=float)
    if eigs is None:
        eigs = np.linalg.eigvals(A)
    scale = max(1.0, np.linalg.norm(A, ord=2))
    dist = np.abs(eigs - sigma)
    k = int(np.argmin(dist))
    if dist[k] < RESONANCE_RTOL * scale:
        raise ResonanceError(
            f"shift {sigma:g} within {dist[k]:.2e} of eigenvalue {eigs[k]:g}"
        )
    n = A.shape[0]
    return np.linalg.solve(sigma * np.eye(n) - A, np.asarray(rhs, dtype=complex))


def bordered_solve(A, omega0, q, p, rhs):
    """Solve the (n+1)x(n+1) bordered system; returns (w, s) with s = pbar^T rhs."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[:n, :n] = 1j * omega0 * np.eye(n) - A
    M[:n, n] = q
    M[n, :n] = np.conj(p)
    b = np.zeros(n + 1, dtype=complex)
    b[:n] = rhs
    sol = np.linalg.solve(M, b)
    return sol[:n], sol[n]


def bordered_inv(A, omega0, q, p, rhs, check: bool = True):
    """A^INV_{i omega0} rhs: unique w with (i w0 I - A) w = rhs, pbar^T w = 0.

    With check=True the right-hand side must satisfy the Fredholm condition
    pbar^T rhs = 0 (to FREDHOLM_RTOL); check=False gives the termwise
    bordered solve that need not solve the original singular system.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if check:
        viol = abs(np.vdot(p, rhs))
        if viol > FREDHOLM_RTOL * max(1.0, np.linalg.norm(rhs)):
            raise ConvergenceError(
                f"Fredholm condition violated: |pbar^T rhs| = {viol:.2e}"
            )
    w, _ = bordered_solve(A, omega0, q, p, rhs)
    return w


def equilibrium(model: ModelDef, x_guess, alpha, tol: float = NEWTON_TOL,
                maxit: int = NEWTON_MAXIT) -> np.ndarray:
    """Newton solve of F(x, alpha) = 0 (constant history for DDE models)."""
    rhs = compile_rhs(model)
    jac0 = compile_state_jacobian(model, None)
    djacs = [compile_state_jacobian(model, j) for j in range(model.n_delays)]
    x = np.asarray(x_guess, dtype=float).copy()
    alpha = np.asarray(alpha, dtype=float)

    def call(f, x):
        if model.is_dde:
            return f(x, [x] * model.n_delays, alpha)
        return f(x, alpha)

    for _ in range(maxit):
        r = call(rhs, x)
        if np.linalg.norm(r) < tol:
            return x
        J = call(jac0, x)
        for dj in djacs:
            J = J + call(dj, x)
        step = np.linalg.solve(J, -r)
        lam = 1.0
        base = np.linalg.norm(r)
        while lam > 1e-4:
            xn = x + lam * step
            if np.linalg.norm(call(rhs, xn)) < base * (1.0 - 0.25 * lam) + tol:
                break
            lam *= 0.5
        x = x + lam * step
    r = np.linalg.norm(call(rhs, x))
    if r < tol * 100:
        return x
    raise ConvergenceError(f"equilibrium Newton stalled at residual {r:.2e}")


def gh_point_at(model: ModelDef, x_guess, alpha, omega_guess) -> GHPointODE:
    """Equilibrium + Hopf eigendata of an ODE model at fixed parameters."""
    alpha = np.asarray(alpha, dtype=float)
    x0 = equilibrium(model, x_guess, alpha)
    A = compile_state_jacobian(model, None)(x0, alpha)
    lam, q, p = _eig_pair(A, omega_guess)
    return GHPointODE(x0=x0, alpha0=alpha, omega0=lam.imag, q=q, p=p, A=A)


def refine_gh(model: ModelDef, x_guess, alpha_guess, omega_guess,
              backend: str = "jets", exact_factory=None,
              tol: float = NEWTON_TOL, maxit: int = NEWTON_MAXIT) -> GHPointODE:
    """Newton-refine (alpha, omega) so that Re(lambda) = 0 and l1 = 0.

    Outer 2x2 Newton in the two parameters with finite-difference Jacobian;
    the equilibrium and eigenpair are re-solved at every parameter value, and
    l1 comes from the cubic normal-form coefficient.
    """
    from .ghode import first_lyapunov

    rhs = compile_rhs(model)
    jacf = compile_state_jacobian(model, None)
    alpha = np.asarray(alpha_guess, dtype=float).copy()
    state = {"x": np.asarray(x_guess, dtype=float), "omega": float(omega_guess)}

    def objective(al):
        x0 = equilibrium(model, state["x"], al)
        A = jacf(x0, al)
        lam, q, p = _eig_pair(A, state["omega"])
        gh = GHPointODE(x0=x0, alpha0=al.copy(), omega0=lam.imag, q=q, p=p, A=A)
        l1 = first_lyapunov(model, gh, backend=backend, exact_factory=exact_factory)
        return np.array([lam.real, l1]), gh

    r, gh = objective(alpha)
    for _ in range(maxit):
        if np.linalg.norm(r) < tol:
            break
        state["x"], state["omega"] = gh.x0, gh.omega0
        J = np.zeros((2, 2))
        for j in range(2):
            h = 1e-6 * max(1.0, abs(alpha[j]))
            rp, _ = objective(alpha + h * np.eye(2)[j])
            J[:, j] = (rp - r) / h
        step = np.linalg.solve(J, -r)
        lam_d = 1.0
        rn = None
        while lam_d > 1e-3:
            try:
                rn, ghn = objective(alpha + lam_d * step)
            except (ConvergenceError, AmbiguousEigenvalueError):
                lam_d *= 0.5
                continue
            if np.linalg.norm(rn) < np.linalg.norm(r) or lam_d <= 1e-3:
                break
            lam_d *= 0.5
        if rn is None:
            raise ConvergenceError(
                f"GH refinement: every line-search trial failed, residual "
                f"{np.linalg.norm(r):.2e}"
            )
        alpha = alpha + lam_d * step
        r, gh = rn, ghn
    else:
        if np.linalg.norm(r) >= tol:
            raise ConvergenceError(
                f"GH refinement stalled, residual {np.linalg.norm(r):.2e}"
            )
    res = np.linalg.norm(rhs(gh.x0, gh.alpha0))
    gh.validate(eq_residual=res)
    return gh
