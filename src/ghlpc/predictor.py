"""First-order and higher-order LPC predictors.

Along the fold-of-cycles curve the unfolding parameters expand as

    beta1 = d2 eps^4 + 2 (d3 - a3201 d2) eps^6,
    beta2 = -2 d2 eps^2 + (4 a3201 d2 - 3 d3) eps^4,

the original parameters follow by alpha = alpha0 + K(beta), the cycle period
by the eps^4-accurate reciprocal expansion, and the orbit by evaluating the
truncated center-manifold map at w = eps * exp(i psi).  The "first-order"
variant keeps only the leading beta terms, the linear part of K, the cubic
state-only part of H plus the linear-in-beta constant/linear terms, and the
eps^2 period correction; it reproduces the predictor this method is usually
compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError, IncompleteCoefficientsError
from .ghode import CriticalCoeffs
from .ghode_params import ParamCoeffs
from .terms import required_h_indices

DEFAULT_PSI_POINTS = 64
DEFAULT_EPS_GRID = np.geomspace(5e-3, 0.3, 12)


def required_index_set() -> set:
    """H indices that must be available for the higher-order predictor."""
    return required_h_indices()


@dataclass
class CoeffSet:
    """Everything the predictor consumes, with H values reduced to vectors.

    For DDEs the table holds the theta = 0 values of the coefficient
    functions; `Hfull` keeps the full representation for residual oracles.
    """

    kind: str
    x0: np.ndarray
    alpha0: np.ndarray
    omega0: float
    q: np.ndarray
    crit: CriticalCoeffs
    pc: ParamCoeffs
    Hv: dict = field(default_factory=dict)
    Hfull: dict = field(default_factory=dict)
    model: object = None
    char: object = None

    def check_complete(self) -> None:
        missing = required_index_set() - set(self.Hv)
        if missing:
            raise IncompleteCoefficientsError(f"missing H indices: {sorted(missing)}")


def collect(gh, crit: CriticalCoeffs, pc: ParamCoeffs, ctx, model=None) -> CoeffSet:
    """Bundle a finished pipeline run into a predictor-ready CoeffSet."""
    Hv: dict = {}
    Hfull: dict = {}
    for (n, m), val in crit.H.items():
        Hv[(n, m, 0, 0)] = ctx.head(val)
        Hfull[(n, m, 0, 0)] = val
    for idx, val in pc.Hp.items():
        Hv[idx] = ctx.head(val)
        Hfull[idx] = val
    cs = CoeffSet(
        kind="dde" if ctx.is_dde else "ode",
        x0=np.asarray(gh.x0, dtype=float),
        alpha0=np.asarray(gh.alpha0, dtype=float),
        omega0=gh.omega0,
        q=ctx.head(ctx.C["q"]),
        crit=crit,
        pc=pc,
        Hv=Hv,
        Hfull=Hfull,
        model=model,
        char=getattr(ctx, "char", None),
    )
    cs.check_complete()
    return cs


def beta_of_eps(crit: CriticalCoeffs, pc: ParamCoeffs, eps: float,
                order: str = "higher") -> np.ndarray:
    d2, d3, a = crit.d2, crit.d3, pc.a3201
    e2 = eps * eps
    if order == "first":
        return np.array([d2 * e2 * e2, -2.0 * d2 * e2])
    b1 = d2 * e2 * e2 + 2.0 * (d3 - a * d2) * e2 ** 3
    b2 = -2.0 * d2 * e2 + (4.0 * a * d2 - 3.0 * d3) * e2 * e2
    return np.array([b1, b2])


def k_of_beta(pc: ParamCoeffs, beta, order: str = "higher") -> np.ndarray:
    b1, b2 = float(beta[0]), float(beta[1])
    out = pc.K["10"] * b1 + pc.K["01"] * b2
    if order == "higher":
        out = out + 0.5 * pc.K["02"] * b2 * b2 + pc.K["11"] * b1 * b2 \
            + pc.K["03"] * b2 ** 3 / 6.0
    return out


def period_of_eps(crit: CriticalCoeffs, pc: ParamCoeffs, eps: float,
                  order: str = "higher") -> float:
    d2, d3, a = crit.d2, crit.d3, pc.a3201
    e2 = eps * eps
    denom = crit.omega0 + (crit.c1.imag - 2.0 * d2 * pc.b1["01"]) * e2
    if order == "higher":
        denom += (
            d2 * pc.b1["10"]
            + (4.0 * a * d2 - 3.0 * d3) * pc.b1["01"]
            + 2.0 * d2 * d2 * pc.b1["02"]
            - 2.0 * d2 * pc.b2["01"]
            + crit.c2.imag
        ) * e2 * e2
    if denom <= 0.0:
        raise DomainError(f"eps = {eps:g} too large: period denominator {denom:.3e}")
    return 2.0 * math.pi / denom


_HIGHER_FAMILIES = {
    (0, 0): range(2, 8),
    (0, 1): range(0, 6),
    (1, 0): range(0, 4),
    (0, 2): range(0, 4),
    (1, 1): range(0, 2),
    (0, 3): range(0, 2),
}


def _orbit_indices(order: str):
    if order == "higher":
        for (k, l), totals in _HIGHER_FAMILIES.items():
            for tot in totals:
                for n in range((tot + 1) // 2, tot + 1):
                    yield n, tot - n, k, l
    else:
        for tot in (2, 3):
            for n in range((tot + 1) // 2, tot + 1):
                yield n, tot - n, 0, 0
        for k, l in ((1, 0), (0, 1)):
            yield 0, 0, k, l
            yield 1, 0, k, l


def orbit_of_eps(cs: CoeffSet, eps: float, psi, beta=None,
                 order: str = "higher") -> np.ndarray:
    """x(psi) = x0 + H(eps e^{i psi}, eps e^{-i psi}, beta), enforced real."""
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    if beta is None:
        beta = beta_of_eps(cs.crit, cs.pc, eps, order)
    b1, b2 = float(beta[0]), float(beta[1])
    w = eps * np.exp(1j * psi)
    wb = np.conj(w)
    total = np.zeros((psi.size, cs.x0.size), dtype=complex)
    total += np.outer(w, cs.q) + np.outer(wb, np.conj(cs.q))
    for n, m, k, l in _orbit_indices(order):
        H = cs.Hv.get((n, m, k, l))
        if H is None:
            raise IncompleteCoefficientsError(f"missing H{n}{m}{k}{l}")
        wgt = (b1 ** k) * (b2 ** l) / (
            math.factorial(n) * math.factorial(m)
            * math.factorial(k) * math.factorial(l)
        )
        if wgt == 0.0:
            continue
        total += wgt * np.outer(w ** n * wb ** m, H)
        if n != m:
            total += wgt * np.outer(w ** m * wb ** n, np.conj(H))
    imag_max = float(np.max(np.abs(total.imag))) if psi.size else 0.0
    if imag_max > 1e-10 * max(eps, 1e-6):
        raise EvaluationError(f"orbit not real: max imag {imag_max:.2e}")
    return cs.x0[None, :] + total.real


@dataclass
class PredictorCurve:
    order: str
    eps: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    period: np.ndarray
    psi: np.ndarray
    orbit: np.ndarray  # (n_eps, n_psi, n)


def predict(cs: CoeffSet, eps_grid=None, order: str = "higher",
            n_psi: int = DEFAULT_PSI_POINTS) -> PredictorCurve:
    """Bundle beta, alpha, period and orbit samples per epsilon."""
    if eps_grid is None:
        eps_grid = DEFAULT_EPS_GRID
    eps_grid = np.asarray(eps_grid, dtype=float)
    psi = np.linspace(0.0, 2.0 * np.pi, n_psi, endpoint=False)
    betas, alphas, periods, orbits = [], [], [], []
    for eps in eps_grid:
        beta = beta_of_eps(cs.crit, cs.pc, eps, order)
        betas.append(beta)
        alphas.append(cs.alpha0 + k_of_beta(cs.pc, beta, order))
        periods.append(period_of_eps(cs.crit, cs.pc, eps, order))
        orbits.append(orbit_of_eps(cs, eps, psi, beta=beta, order=order))
    return PredictorCurve(
        order=order,
        eps=eps_grid,
        beta=np.array(betas),
        alpha=np.array(alphas),
        period=np.array(periods),
        psi=psi,
        orbit=np.array(orbits),
    )
