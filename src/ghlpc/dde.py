"""Discrete-DDE pipeline: characteristic matrix, resolvent representations,
bordered operator inverse, and the DDE normal-form coefficients.

Center-manifold coefficients of a discrete DDE are functions on [-h, 0] of the
form exp(rate * theta) * (a0 + a1 theta + ... ), with rate an integer multiple
of i*omega0 and polynomial degree at most 3.  This class of functions is
closed under everything the coefficient pipeline does, so it is represented
symbolically (:class:`HistFn`) and all solves and duality pairings are
evaluated in closed form -- no grids, no quadrature.

A regular solve at a non-eigenvalue rate with right-hand side
(w0, e^(lam theta)(a0 + a1 theta + ...)) has the unique solution

    v(theta) = e^(lam theta) (v0 - theta a0 - theta^2 a1 / 2 - ...),
    v0 = Delta(lam)^-1 [w0 + (Delta' - I) a0 + Delta'' a1 / 2 + ...],

and the bordered solve at a simple eigenvalue replaces Delta^-1 by the
bordered inverse and adds gamma * q to v0 with

    gamma = -p Delta' xi + p Delta'' xi0 / 2 + p Delta''' xi1 / 6 + ...

The whole coefficient schedule is shared with the ODE pipeline through the
context interface; only the solves and the duality pairing differ.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import ghode, ghode_params
from .errors import (
    AmbiguousEigenvalueError,
    CapabilityError,
    ConvergenceError,
    ResonanceError,
)
from .jets import ExactFormEngine, FormEngine
from .linode import FREDHOLM_RTOL, equilibrium
from .modeldsl import ModelDef, compile_state_jacobian, eval_model
from .terms import FORM_NAMES, FORM_ORDERS

MAX_POLY_DEGREE = 4
RATE_TOL = 1e-9


@dataclass(frozen=True)
class HistFn:
    """exp(rate * theta) * sum_k poly[k] theta^k on [-h, 0]."""

    rate: complex
    poly: tuple

    @staticmethod
    def of(rate: complex, vectors) -> "HistFn":
        return HistFn(complex(rate), tuple(np.asarray(v, dtype=complex) for v in vectors))

    @property
    def n(self) -> int:
        return self.poly[0].size

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def __call__(self, theta: float) -> np.ndarray:
        acc = np.zeros(self.n, dtype=complex)
        for k in reversed(range(len(self.poly))):
            acc = acc * theta + self.poly[k]
        return acc * cmath.exp(self.rate * theta)

    def at_zero(self) -> np.ndarray:
        return self.poly[0].copy()

    def conj(self) -> "HistFn":
        return HistFn(np.conj(self.rate), tuple(np.conj(a) for a in self.poly))

    def derivative(self) -> "HistFn":
        out = [self.rate * a for a in self.poly]
        for k in range(1, len(self.poly)):
            out[k - 1] = out[k - 1] + k * self.poly[k]
        return HistFn(self.rate, tuple(out))

    def __add__(self, other: "HistFn") -> "HistFn":
        if abs(self.rate - other.rate) > RATE_TOL * (1 + abs(self.rate)):
            raise ValueError("adding history functions with different rates")
        d = max(len(self.poly), len(other.poly))
        out = []
        for k in range(d):
            a = self.poly[k] if k < len(self.poly) else 0.0
            b = other.poly[k] if k < len(other.poly) else 0.0
            out.append(a + b)
        return HistFn(self.rate, tuple(out))

    def __mul__(self, s):
        return HistFn(self.rate, tuple(s * a for a in self.poly))

    __rmul__ = __mul__


@dataclass(frozen=True)
class CharMatrix:
    """Delta(z) = z I - sum_j M_j exp(-z tau_j) with tau_0 = 0."""

    M: tuple          # matrices M_0 .. M_m
    delays: tuple     # tau_1 < ... < tau_m (tau_0 = 0 is implicit)

    @property
    def n(self) -> int:
        return self.M[0].shape[0]

    @property
    def taus(self) -> tuple:
        return (0.0,) + tuple(self.delays)

    def delta(self, z: complex, k: int = 0) -> np.ndarray:
        if k > 4:
            raise CapabilityError("characteristic-matrix derivatives capped at order 4")
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        for Mj, tau in zip(self.M, self.taus):
            w = cmath.exp(-z * tau)
            if k == 0:
                out -= Mj * w
            else:
                out += (-1.0) ** (k + 1) * (tau ** k) * Mj * w
        if k == 0:
            out += z * np.eye(n)
        elif k == 1:
            out += np.eye(n)
        return out


def char_matrix(model: ModelDef, x0, alpha0) -> CharMatrix:
    """Partial Jacobians of the right-hand side at an equilibrium."""
    x0 = np.asarray(x0, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    mats = []
    for j in [None] + list(range(model.n_delays)):
        jac = compile_state_jacobian(model, j)
        if model.is_dde:
            mats.append(jac(x0, [x0] * model.n_delays, alpha0))
        else:
            mats.append(jac(x0, alpha0))
    return CharMatrix(M=tuple(mats), delays=tuple(model.delays))


def delta(char: CharMatrix, z: complex, k: int = 0) -> np.ndarray:
    return char.delta(z, k)


@dataclass
class GHPointDDE:
    x0: np.ndarray
    alpha0: np.ndarray
    omega0: float
    q: np.ndarray
    p: np.ndarray
    char: CharMatrix

    def validate(self, tol: float = 1e-8) -> None:
        D = self.char.delta(1j * self.omega0)
        r1 = np.linalg.norm(D @ self.q)
        r2 = np.linalg.norm(self.p @ D)
        nrm = self.p @ self.char.delta(1j * self.omega0, 1) @ self.q
        if max(r1, r2) > tol or abs(nrm - 1.0) > tol:
            raise ConvergenceError(
                f"DDE eigenpair residuals {r1:.2e}, {r2:.2e}, |pDq-1|={abs(nrm-1):.2e}"
            )


def _null_vector(Mat: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(Mat)
    return np.conj(vh[-1])


def _eig_root(char: CharMatrix, lam0: complex, maxit: int = 60):
    """Newton on det Delta(lam) from lam0 (Jacobi's formula for the slope)."""
    lam = complex(lam0)
    scale = max(1.0, max(np.linalg.norm(Mj) for Mj in char.M))
    for _ in range(maxit):
        D = char.delta(lam)
        try:
            # det'/det = tr(Delta^-1 Delta'), so the Newton step needs no det
            step = 1.0 / np.trace(np.linalg.solve(D, char.delta(lam, 1)))
        except np.linalg.LinAlgError:
            break
        lam -= step
        if abs(step) < 1e-15 + 1e-14 * abs(lam):
            break
    if abs(np.linalg.det(char.delta(lam))) > 1e-8 * scale ** char.n:
        raise ConvergenceError(f"no characteristic root found near {lam0:g}")
    return lam


def dde_eigenpair(char: CharMatrix, omega_guess: float):
    """(omega0, q, p) with qbar^T q = 1, p^T Delta'(i w0) q = 1, phase-fixed q."""
    lam = _eig_root(char, 1j * omega_guess)
    if abs(lam.real) > 1e-6 * max(1.0, abs(lam)):
        raise AmbiguousEigenvalueError(
            f"root {lam:g} near i*{omega_guess:g} is not purely imaginary"
        )
    omega0 = lam.imag
    D = char.delta(1j * omega0)
    q = _null_vector(D)
    q = q / np.sqrt(np.vdot(q, q).real)
    k = int(np.argmax(np.abs(q)))
    q = q * (np.conj(q[k]) / abs(q[k]))
    p = _null_vector(D.T)
    nrm = p @ char.delta(1j * omega0, 1) @ q
    if abs(nrm) < 1e-8 * np.linalg.norm(p):
        raise AmbiguousEigenvalueError("characteristic root numerically non-simple")
    p = p / nrm
    return omega0, q, p


def resolvent_case(char: CharMatrix, lam: complex, w0, wpoly=()) -> HistFn:
    """Unique solution of (lam - A_sunstar)(v0, v) = (w0, w) at a non-eigenvalue.

    `wpoly` lists the vectors a_k of w(theta) = e^(lam theta) sum a_k theta^k
    (degree <= 3).  Covers the pure-point case and the theta-polynomial cases
    uniformly; the representation matches the printed closed forms.
    """
    if len(wpoly) > MAX_POLY_DEGREE - 1:
        raise CapabilityError("resolvent right-hand side degree exceeds 3")
    D = char.delta(lam)
    sv = np.linalg.svd(D, compute_uv=False)
    if sv[-1] < 1e-9 * max(1.0, sv[0]):
        raise ResonanceError(f"resolvent shift {lam:g} is (near) an eigenvalue")
    rhs = np.asarray(w0, dtype=complex).copy()
    for k, a in enumerate(wpoly):
        if k == 0:
            rhs = rhs + (char.delta(lam, 1) - np.eye(char.n)) @ a
        else:
            rhs = rhs + char.delta(lam, k + 1) @ a / (k + 1)
    v0 = np.linalg.solve(D, rhs)
    poly = [v0] + [-np.asarray(a, dtype=complex) / (k + 1) for k, a in enumerate(wpoly)]
    return HistFn.of(lam, poly)


def bordered_inv_dde(gh: GHPointDDE, eta, xis=(), check: bool = True) -> HistFn:
    """B^INV_{i w0}(eta, xi0, xi1, ...): bordered solve of the singular case.

    The right-hand side is (eta + xi0, e^(i w0 theta)(xi0 + xi1 theta + ...)).
    With check=True the Fredholm condition is enforced; check=False is the
    termwise variant whose output only solves the equation in prescribed
    linear combinations.
    """
    if len(xis) > MAX_POLY_DEGREE - 1:
        raise CapabilityError("bordered right-hand side degree exceeds 3")
    lam = 1j * gh.omega0
    char = gh.char
    n = char.n
    rhs = np.asarray(eta, dtype=complex).copy()
    for k, xi in enumerate(xis):
        rhs = rhs + char.delta(lam, k + 1) @ np.asarray(xi, dtype=complex) / (k + 1)
    if check:
        viol = abs(gh.p @ rhs)
        if viol > FREDHOLM_RTOL * max(1.0, np.linalg.norm(rhs)):
            raise ConvergenceError(
                f"DDE Fredholm condition violated: |p^T rhs| = {viol:.2e}"
            )
    Mb = np.zeros((n + 1, n + 1), dtype=complex)
    Mb[:n, :n] = char.delta(lam)
    Mb[:n, n] = gh.q
    Mb[n, :n] = gh.p
    b = np.zeros(n + 1, dtype=complex)
    b[:n] = rhs
    xi_sol = np.linalg.solve(Mb, b)[:n]
    gamma = -(gh.p @ char.delta(lam, 1) @ xi_sol)
    for k, xi in enumerate(xis):
        gamma += (gh.p @ char.delta(lam, k + 2) @ np.asarray(xi, dtype=complex)) / (
            (k + 1) * (k + 2)
        )
    v0 = xi_sol + gamma * gh.q
    poly = [v0] + [-np.asarray(xi, dtype=complex) / (k + 1) for k, xi in enumerate(xis)]
    return HistFn.of(lam, poly)


def _int_poly_exp(k: int, mu: complex, t: float) -> complex:
    """integral_0^t s^k exp(mu s) ds, exact."""
    if abs(mu) * t < 1e-12:
        return t ** (k + 1) / (k + 1)
    e = cmath.exp(mu * t)
    if k == 0:
        return (e - 1.0) / mu
    return (t ** k * e - k * _int_poly_exp(k - 1, mu, t)) / mu


def sun_pairing(char: CharMatrix, lam: complex, p: np.ndarray, h: HistFn) -> complex:
    """<j h, phi_sun> with phi_sun the adjoint eigenfunction at lam."""
    acc = complex(p @ h.at_zero())
    for Mj, tau in zip(char.M[1:], char.delays):
        pm = p @ Mj * cmath.exp(-lam * tau)
        inner = np.zeros(char.n, dtype=complex)
        for k, a in enumerate(h.poly):
            inner = inner + ((-1.0) ** k) * _int_poly_exp(k, lam - h.rate, tau) * a
        acc += pm @ inner
    return acc


class DdeContext:
    """Coefficient-pipeline context for discrete DDEs."""

    is_dde = True

    def __init__(self, model: ModelDef, gh: GHPointDDE,
                 backend: str = "jets", exact_factory=None):
        self.model = model
        self.gh = gh
        self.char = gh.char
        self.n = gh.char.n
        self.omega0 = gh.omega0
        self.q = gh.q.astype(complex)
        self.p = gh.p.astype(complex)
        self.n_delays = len(gh.char.delays)
        slots = self.n * (1 + self.n_delays)
        x_stack = np.tile(np.asarray(gh.x0, dtype=float), 1 + self.n_delays)
        if backend == "exact":
            if exact_factory is None:
                raise ValueError("exact backend requires an exact_factory")
            self.engine = ExactFormEngine(
                exact_factory(gh.x0, gh.alpha0), slots, 2, self.n
            )
        elif backend == "jets":
            n = self.n
            nd = self.n_delays

            def eval_fn(state_seeds, param_seeds):
                now = state_seeds[:n]
                delayed = [state_seeds[n * (j + 1):n * (j + 2)] for j in range(nd)]
                return eval_model(model, now, delayed, param_seeds)

            self.engine = FormEngine(eval_fn, x_stack, gh.alpha0, self.n)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.C: dict[str, object] = {"q": HistFn.of(1j * gh.omega0, [self.q])}
        self.gamma_nf: dict[tuple[int, int, int], complex] = {}
        self.fredholm_residuals: list[float] = []

    # -- value helpers --------------------------------------------------------
    def conj(self, v):
        return v.conj() if isinstance(v, HistFn) else np.conj(v)

    def head(self, v):
        return v.at_zero() if isinstance(v, HistFn) else np.asarray(v, dtype=complex)

    def resolve(self, key: str):
        if key.startswith("~"):
            return self.conj(self.C[key[1:]])
        return self.C[key]

    def state_vec(self, v):
        if isinstance(v, HistFn):
            vals = [v(0.0)] + [v(-tau) for tau in self.char.delays]
            return np.concatenate(vals)
        return np.asarray(v, dtype=complex)

    # -- multilinear forms ------------------------------------------------------
    def form(self, name: str, *args) -> np.ndarray:
        r, s = FORM_ORDERS[name]
        state_dirs = [self.state_vec(a) for a in args[:r]]
        param_dirs = [np.asarray(a, dtype=complex) for a in args[r:]]
        return self.engine.form(state_dirs, param_dirs)

    def contract(self, term_list) -> np.ndarray:
        out = np.zeros(self.n, dtype=complex)
        for coeff, name, *argkeys in term_list:
            out += coeff * self.form(name, *(self.resolve(k) for k in argkeys))
        return out

    # -- solves -------------------------------------------------------------------
    def _collect(self, rate: complex, jterms):
        """Stack j-term history functions into polynomial coefficient vectors."""
        acc: list[np.ndarray] = []
        for coef, v in jterms:
            h = self.resolve(v)
            if not isinstance(h, HistFn):
                h = HistFn.of(rate, [h])
            if abs(h.rate - rate) > RATE_TOL * (1.0 + abs(rate)):
                raise ValueError(
                    f"j-term rate {h.rate:g} does not match solve rate {rate:g}"
                )
            for k, a in enumerate(h.poly):
                while len(acc) <= k:
                    acc.append(np.zeros(self.n, dtype=complex))
                acc[k] = acc[k] + coef * a
        return acc

    def reg_solve(self, k: int, M, jterms=()):
        rate = 1j * k * self.omega0
        poly = self._collect(rate, jterms)
        w0 = np.asarray(M, dtype=complex).copy()
        if poly:
            w0 = w0 + poly[0]
        return resolvent_case(self.char, rate, w0, poly)

    def sing_solve(self, M, jterms=(), check: bool = True):
        rate = 1j * self.omega0
        xis = self._collect(rate, jterms)
        eta = np.asarray(M, dtype=complex)
        if check:
            rhs = eta.copy()
            for kk, xi in enumerate(xis):
                rhs = rhs + self.char.delta(rate, kk + 1) @ xi / (kk + 1)
            resid = abs(self.p @ rhs) / max(1.0, np.linalg.norm(rhs))
            self.fredholm_residuals.append(resid)
        return bordered_inv_dde(self.gh, eta, xis, check=check)

    # -- pairings ---------------------------------------------------------
    def proj(self, vec) -> complex:
        return complex(self.p @ np.asarray(vec, dtype=complex))

    def pairing(self, value) -> complex:
        if isinstance(value, HistFn):
            return sun_pairing(self.char, 1j * self.omega0, self.p, value)
        return complex(self.p @ value)


def dde_multilinear(model: ModelDef, gh: GHPointDDE, state_dirs, param_dirs=(),
                    backend: str = "jets", exact_factory=None) -> np.ndarray:
    """Mixed multilinear form with HistFn state directions (spec surface)."""
    ctx = DdeContext(model, gh, backend=backend, exact_factory=exact_factory)
    name = FORM_NAMES.get((len(state_dirs), len(param_dirs)))
    if name is None:
        raise CapabilityError("unsupported multilinear order")
    return ctx.form(name, *state_dirs, *param_dirs)


def gh_point_dde_at(model: ModelDef, alpha, omega0: float,
                    x_guess=None) -> GHPointDDE:
    """Eigendata at fixed parameters, taking omega0 as given (no root solve)."""
    alpha = np.asarray(alpha, dtype=float)
    if x_guess is None:
        x_guess = np.zeros(model.n)
    x0 = equilibrium(model, x_guess, alpha)
    char = char_matrix(model, x0, alpha)
    D = char.delta(1j * omega0)
    q = _null_vector(D)
    q = q / np.sqrt(np.vdot(q, q).real)
    k = int(np.argmax(np.abs(q)))
    q = q * (np.conj(q[k]) / abs(q[k]))
    p = _null_vector(D.T)
    p = p / (p @ char.delta(1j * omega0, 1) @ q)
    return GHPointDDE(x0=x0, alpha0=alpha, omega0=omega0, q=q, p=p, char=char)


def first_lyapunov_dde(model: ModelDef, gh: GHPointDDE, backend="jets",
                       exact_factory=None) -> float:
    c1, _ = ghode.cubic_stage(
        DdeContext(model, gh, backend=backend, exact_factory=exact_factory)
    )
    return c1.real / gh.omega0


def refine_gh_dde(model: ModelDef, alpha_guess, omega_guess, x_guess=None,
                  backend: str = "jets", exact_factory=None,
                  tol: float = 1e-10, maxit: int = 30) -> GHPointDDE:
    """Newton on (Re det, Im det, l1) over (alpha1, alpha2, omega)."""
    z = np.array([*np.asarray(alpha_guess, dtype=float), float(omega_guess)])

    def objective(zv):
        alpha, omega = zv[:2], zv[2]
        gh = gh_point_dde_at(model, alpha, omega, x_guess=x_guess)
        det = np.linalg.det(gh.char.delta(1j * omega))
        l1 = first_lyapunov_dde(model, gh, backend=backend, exact_factory=exact_factory)
        return np.array([det.real, det.imag, l1]), gh

    r, gh = objective(z)
    for _ in range(maxit):
        if np.linalg.norm(r) < tol:
            break
        J = np.zeros((3, 3))
        for j in range(3):
            h = 1e-6 * max(1.0, abs(z[j]))
            rp, _ = objective(z + h * np.eye(3)[j])
            J[:, j] = (rp - r) / h
        step = np.linalg.solve(J, -r)
        lam_d = 1.0
        rn = None
        while lam_d > 1e-3:
            try:
                rn, ghn = objective(z + lam_d * step)
            except (ConvergenceError, AmbiguousEigenvalueError):
                lam_d *= 0.5
                continue
            if np.linalg.norm(rn) < np.linalg.norm(r) or lam_d <= 1e-3:
                break
            lam_d *= 0.5
        if rn is None:
            raise ConvergenceError(
                f"DDE GH refinement: every line-search trial failed, residual "
                f"{np.linalg.norm(r):.2e}"
            )
        z = z + lam_d * step
        r, gh = rn, ghn
    else:
        if np.linalg.norm(r) >= tol:
            raise ConvergenceError(
                f"DDE GH refinement stalled, residual {np.linalg.norm(r):.2e}"
            )
    gh.validate()
    return gh


def make_dde_context(model: ModelDef, gh: GHPointDDE, backend: str = "jets",
                     exact_factory=None) -> DdeContext:
    return DdeContext(model, gh, backend=backend, exact_factory=exact_factory)


def dde_coeffs(model: ModelDef, gh: GHPointDDE, backend: str = "jets",
               exact_factory=None):
    """Critical and parameter-dependent coefficients of a discrete DDE."""
    ctx = make_dde_context(model, gh, backend=backend, exact_factory=exact_factory)
    crit = ghode.run_critical(ctx)
    pc = ghode_params.param_coeffs(ctx, crit)
    return crit, pc, ctx
