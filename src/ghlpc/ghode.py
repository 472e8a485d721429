"""Critical normal-form coefficients c1, c2, c3 and the center-manifold table.

The homological equation is processed coefficient by coefficient in a fixed
dependency order.  Every right-hand side is the sum of a multilinear part
(generated by :func:`ghlpc.terms.rhs_terms`) and corrections coming from the
already known normal-form monomials.  The corrections are generated too: for
the target monomial w^N wbar^M b1^K b2^L, a known normal-form monomial
g * w^(a+1) wbar^a b1^j b2^k contributes

    (N!M!K!L! / n!m!k!l!) * (n*g + m*conj(g)) * H_{nmkl},

with (n, m, k, l) = (N-a, M-a, K-j, L-k).  The usual criticality shortcuts
(c1 + conj(c1) = 0 and friends) are therefore never applied; they are checked
at runtime instead.

The same schedule drives the ODE and DDE pipelines through a small context
interface (multilinear forms, regular solve at a multiple of i*omega0, and
the bordered singular solve at i*omega0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import terms as T
from .errors import ConvergenceError, DegenerateGHWarning, ResonanceError
from .jets import ExactFormEngine, FormEngine
from .linode import (
    FREDHOLM_RTOL,
    RESONANCE_RTOL,
    GHPointODE,
    bordered_solve,
)
from .modeldsl import ModelDef, eval_model

IDENTITY_TOL = 1e-8


def _fact4(n, m, k, l) -> float:
    return float(
        math.factorial(n) * math.factorial(m) * math.factorial(k) * math.factorial(l)
    )


def hkey(n: int, m: int, k: int, l: int) -> str:
    if (n, m, k, l) == (1, 0, 0, 0):
        return "q"
    return f"H{n}{m}{k}{l}"


def set_gamma(ctx, a: int, mu: str, value: complex) -> None:
    """Record a normal-form coefficient as a literal monomial coefficient."""
    k, l = int(mu[0]), int(mu[1])
    ctx.gamma_nf[(a, k, l)] = complex(value) / (math.factorial(k) * math.factorial(l))


def g_jterms(ctx, N: int, M: int, K: int, L: int, extra: dict | None = None):
    """Correction terms -(coef) * H_{nmkl} for the (N, M, K, L) equation."""
    table = dict(ctx.gamma_nf)
    if extra:
        table.update(extra)
    NF = _fact4(N, M, K, L)
    out = []
    for (a, j, k), gv in sorted(table.items()):
        if (a, j, k) == (0, 0, 0):
            continue
        n, m, kk, ll = N - a, M - a, K - j, L - k
        if min(n, m, kk, ll) < 0 or (n, m, kk, ll) == (N, M, K, L):
            continue
        if n == 0 and m == 0:
            continue
        coef = NF / _fact4(n, m, kk, ll) * (n * gv + m * np.conj(gv))
        if coef != 0.0:
            out.append((-coef, hkey(n, m, kk, ll)))
    return out


class OdeContext:
    """Coefficient-pipeline context for finite-dimensional ODE systems."""

    is_dde = False

    def __init__(self, model: ModelDef | None, gh: GHPointODE,
                 backend: str = "jets", exact_factory=None):
        self.model = model
        self.gh = gh
        self.n = gh.A.shape[0]
        self.A = np.asarray(gh.A, dtype=float)
        self.omega0 = gh.omega0
        self.q = gh.q.astype(complex)
        self.p = gh.p.astype(complex)
        self.eigs = np.linalg.eigvals(self.A)
        self._scale = max(1.0, np.linalg.norm(self.A, ord=2))
        if backend == "exact":
            if exact_factory is None:
                raise ValueError("exact backend requires an exact_factory")
            self.engine = ExactFormEngine(
                exact_factory(gh.x0, gh.alpha0), self.n, 2, self.n
            )
        elif backend == "jets":
            if model is None:
                raise ValueError("jet backend requires a model definition")

            def eval_fn(state_seeds, param_seeds):
                return eval_model(model, state_seeds, (), param_seeds)

            self.engine = FormEngine(eval_fn, gh.x0, gh.alpha0, self.n)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.C: dict[str, object] = {"q": self.q}
        self.gamma_nf: dict[tuple[int, int, int], complex] = {}
        self.fredholm_residuals: list[float] = []

    # -- value helpers ------------------------------------------------------
    def conj(self, v):
        return np.conj(v)

    def head(self, v):
        return np.asarray(v, dtype=complex)

    def resolve(self, key: str):
        if key.startswith("~"):
            return self.conj(self.C[key[1:]])
        return self.C[key]

    def state_vec(self, v):
        return np.asarray(v, dtype=complex)

    # -- multilinear forms ----------------------------------------------------
    def form(self, name: str, *args) -> np.ndarray:
        r, s = T.FORM_ORDERS[name]
        state_dirs = [self.state_vec(a) for a in args[:r]]
        param_dirs = [np.asarray(a, dtype=complex) for a in args[r:]]
        return self.engine.form(state_dirs, param_dirs)

    def contract(self, term_list) -> np.ndarray:
        out = np.zeros(self.n, dtype=complex)
        for coeff, name, *argkeys in term_list:
            out += coeff * self.form(name, *(self.resolve(k) for k in argkeys))
        return out

    # -- linear solves ---------------------------------------------------------
    def _rhs_total(self, M, jterms):
        rhs = np.asarray(M, dtype=complex).copy()
        for coef, v in jterms:
            rhs += coef * self.head(self.resolve(v))
        return rhs

    def reg_solve(self, k: int, M, jterms=()):
        sigma = 1j * k * self.omega0
        dist = np.abs(self.eigs - sigma)
        i = int(np.argmin(dist))
        if dist[i] < RESONANCE_RTOL * self._scale:
            raise ResonanceError(
                f"solve at {k}*i*omega0 resonates with eigenvalue {self.eigs[i]:g}"
            )
        rhs = self._rhs_total(M, jterms)
        return np.linalg.solve(sigma * np.eye(self.n) - self.A, rhs)

    def sing_solve(self, M, jterms=(), check: bool = True):
        rhs = self._rhs_total(M, jterms)
        resid = abs(np.vdot(self.p, rhs)) / max(1.0, np.linalg.norm(rhs))
        if check:
            self.fredholm_residuals.append(resid)
            if resid > FREDHOLM_RTOL:
                raise ConvergenceError(
                    f"Fredholm pre-projection residual {resid:.2e}"
                )
        w, _ = bordered_solve(self.A, self.omega0, self.q, self.p, rhs)
        return w

    # -- pairings ---------------------------------------------------------------
    def proj(self, vec) -> complex:
        return complex(np.vdot(self.p, vec))

    def pairing(self, value) -> complex:
        return complex(np.vdot(self.p, value))

    def phi_value(self):
        return self.q


@dataclass
class CriticalCoeffs:
    """Critical coefficients and the parameter-independent H table."""

    omega0: float
    c1: complex
    c2: complex
    c3: complex
    H: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def l1(self) -> float:
        return self.c1.real / self.omega0

    @property
    def l2(self) -> float:
        return self.c2.real / self.omega0

    @property
    def d2(self) -> float:
        return self.c2.real

    @property
    def d3(self) -> float:
        return self.c3.real


def solve_regular(ctx, idx):
    """Solve and store the non-singular equation of H_idx (rate n - m)."""
    n, m = idx[:2]
    val = ctx.reg_solve(n - m, ctx.contract(T.rhs_terms(idx)), g_jterms(ctx, *idx))
    ctx.C[hkey(*idx)] = val
    return val


def cubic_stage(ctx):
    """Solve H2000 and H1100; return c1 and the right-hand side of w^2 wbar."""
    for n, m in T.CRITICAL[:2]:
        solve_regular(ctx, (n, m, 0, 0))
    M21 = ctx.contract(T.rhs_terms((2, 1, 0, 0)))
    return 0.5 * ctx.proj(M21), M21


def run_critical(ctx, degeneracy_check: bool = True) -> CriticalCoeffs:
    """Fill the context store with c1..c3 and every H_{nm00}, 2 <= n+m <= 7."""
    C = ctx.C
    c1, M21 = cubic_stage(ctx)
    for n, m in T.CRITICAL[2:]:
        idx = (n, m, 0, 0)
        if n - m != 1:
            solve_regular(ctx, idx)
            continue
        # c_m from the w^(m+1) wbar^m equation
        if m == 1:
            c, M = c1, M21
        else:
            M = ctx.contract(T.rhs_terms(idx))
            c = ctx.proj(M) / (math.factorial(n) * math.factorial(m))
        C[f"c{m}"] = c
        set_gamma(ctx, m, "00", c)
        if m == 1 and abs(c.real) > IDENTITY_TOL * max(1.0, abs(c)):
            warnings.warn(
                f"Re c1 = {c.real:.2e}: point is away from the Hopf curve",
                stacklevel=2,
            )
        if m == 2 and degeneracy_check and abs(c.real) < 1e-8 * ctx.omega0:
            warnings.warn(
                f"|Re c2| = {abs(c.real):.2e}: generalized Hopf point is degenerate",
                DegenerateGHWarning,
                stacklevel=2,
            )
        C[hkey(*idx)] = ctx.sing_solve(M, g_jterms(ctx, *idx))
    H = {
        (n, m): C[f"H{n}{m}00"]
        for tot in range(2, 8)
        for n in range((tot + 1) // 2, tot + 1)
        for m in (tot - n,)
    }
    return CriticalCoeffs(
        omega0=ctx.omega0, c1=C["c1"], c2=C["c2"], c3=C["c3"], H=H,
        checks={"fredholm": list(ctx.fredholm_residuals)},
    )


def make_ode_context(model: ModelDef, gh: GHPointODE, backend: str = "jets",
                     exact_factory=None) -> OdeContext:
    return OdeContext(model, gh, backend=backend, exact_factory=exact_factory)


def critical_coeffs(model: ModelDef, gh: GHPointODE, backend: str = "jets",
                    exact_factory=None) -> CriticalCoeffs:
    """Compute c1(0), c2(0), c3(0) and all H_{nm00} for an ODE model."""
    ctx = make_ode_context(model, gh, backend, exact_factory)
    return run_critical(ctx)


def first_lyapunov(model: ModelDef, gh: GHPointODE, backend: str = "jets",
                   exact_factory=None) -> float:
    """l1 = Re c1(0) / omega0, computing only the cubic stage."""
    c1, _ = cubic_stage(make_ode_context(model, gh, backend, exact_factory))
    return c1.real / gh.omega0
