"""Parameter-dependent coefficients: K_mu, b-scalars, a3201 and the H table.

All five parameter directions mu in {10, 01, 02, 11, 03} share one structure:
the unknowns (gamma_1, gamma_2) = K_mu enter every intermediate coefficient
affinely, and two real conditions pin them down -- the Fredholm condition of
the w*beta^mu equation (row 1) and of the w^2 wbar w*beta^mu equation (row 2).
Row 1 is assembled from Gamma_i(q) directly; row 2 is obtained by evaluating
the full Fredholm functional at gamma = (0,0), (1,0), (0,1) and differencing,
which reproduces the closed-form 2x2 system exactly (the functional is affine
in gamma) without writing its expanded form out.  Every right-hand side is
generated by :func:`ghlpc.terms.rhs_terms`.  The same machinery runs
unchanged on the DDE context.

Intermediate solves during the gamma probing use the unchecked (termwise)
bordered solve; only the final, Fredholm-consistent right-hand sides go
through the checked solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TransversalityError
from .ghode import CriticalCoeffs, g_jterms, hkey, set_gamma, solve_regular
from .terms import GREY_HELPERS, required_h_indices, rhs_terms

CONSISTENCY_TOL = 1e-7
P_COND_LIMIT = 1e8


@dataclass
class ParamCoeffs:
    """Parameter maps, frequency corrections and the beta-dependent H table."""

    K: dict = field(default_factory=dict)          # mu -> real (2,)
    b1: dict = field(default_factory=dict)         # mu -> float
    b2: dict = field(default_factory=dict)         # mu -> float
    g3201: complex = 0.0 + 0.0j
    Hp: dict = field(default_factory=dict)         # (n,m,k,l) -> value
    gamma: dict = field(default_factory=dict)
    P: np.ndarray | None = None
    P_by_stage: dict = field(default_factory=dict)
    cond_P: float = np.nan
    checks: dict = field(default_factory=dict)

    @property
    def a3201(self) -> float:
        return self.g3201.real


class _StagePieces:
    """Quantities shared by all five parameter stages."""

    def __init__(self, ctx):
        q = ctx.C["q"]
        self.e = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        self.J1e = [ctx.form("J1", e) for e in self.e]
        self.S = [ctx.reg_solve(0, v) for v in self.J1e]
        self.Gamma = [
            ctx.form("A1", q, self.e[i]) + ctx.form("B", q, self.S[i])
            for i in range(2)
        ]
        self.pGamma = [ctx.proj(g) for g in self.Gamma]


def _stage(ctx, mu: str, pieces: _StagePieces, pc: ParamCoeffs,
           solve_h21: bool) -> None:
    C = ctx.C
    d10 = 1.0 if mu == "10" else 0.0
    d01 = 1.0 if mu == "01" else 0.0
    kmu, lmu = int(mu[0]), int(mu[1])
    wmu = math.factorial(kmu) * math.factorial(lmu)
    # Every term holds at most one of the stage's unknowns (they carry the
    # whole beta degree); the terms without one are contracted once, the
    # others again for every probe of K_mu.
    solved = ((0, 0), (1, 0), (2, 0), (1, 1))
    unknown = {f"K{mu}"} | {hkey(n, m, kmu, lmu) for n, m in solved}
    fixed, live = {}, {}
    for n, m in solved + ((2, 1),):
        terms = rhs_terms((n, m, kmu, lmu))
        has = [any(key.lstrip("~") in unknown for key in t[2:]) for t in terms]
        fixed[n, m] = ctx.contract([t for t, h in zip(terms, has) if not h])
        live[n, m] = [t for t, h in zip(terms, has) if h]
    v00c = ctx.reg_solve(0, fixed[0, 0])
    q = C["q"]
    Mt10 = fixed[1, 0] + ctx.form("B", q, v00c)
    pMt10 = ctx.proj(Mt10)

    def rhs_of(n, m):
        return ctx.contract(live[n, m]) + fixed[n, m]

    def assemble(g1: float, g2: float, final: bool):
        """Solve the stage at K_mu = (g1, g2), leaving the values in the store."""
        C[f"K{mu}"] = g1 * pieces.e[0] + g2 * pieces.e[1]
        b1 = (
            g1 * pieces.pGamma[0].imag
            + g2 * pieces.pGamma[1].imag
            + pMt10.imag
        )
        C[hkey(0, 0, kmu, lmu)] = g1 * pieces.S[0] + g2 * pieces.S[1] + v00c
        extra = None
        if final:
            set_gamma(ctx, 0, mu, d10 + 1j * b1)
        else:
            extra = {(0, kmu, lmu): (d10 + 1j * b1) / wmu}
        C[hkey(1, 0, kmu, lmu)] = ctx.sing_solve(
            rhs_of(1, 0), g_jterms(ctx, 1, 0, kmu, lmu, extra), check=final
        )
        for n, m in ((2, 0), (1, 1)):
            C[hkey(n, m, kmu, lmu)] = ctx.reg_solve(
                n - m, rhs_of(n, m), g_jterms(ctx, n, m, kmu, lmu, extra)
            )
        rhs21 = rhs_of(2, 1)
        return dict(b1=b1, f=0.5 * ctx.proj(rhs21), rhs21=rhs21)

    probes = [assemble(*g, final=False) for g in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    f0 = probes[0]["f"]
    P = np.array(
        [
            [pieces.pGamma[0].real, pieces.pGamma[1].real],
            [(probes[1]["f"] - f0).real, (probes[2]["f"] - f0).real],
        ]
    )
    rhs = np.array([d10 - pMt10.real, d01 - f0.real])
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or cond > P_COND_LIMIT:
        raise TransversalityError(
            f"transversality matrix ill-conditioned (cond = {cond:.2e})"
        )
    gam = np.linalg.solve(P, rhs)
    fin = assemble(gam[0], gam[1], final=True)
    b2 = fin["f"].imag
    set_gamma(ctx, 1, mu, d01 + 1j * b2)
    consistency = abs(fin["f"].real - d01)
    pc.checks.setdefault("stage_consistency", {})[mu] = consistency
    if consistency > CONSISTENCY_TOL * max(1.0, abs(fin["f"])):
        raise TransversalityError(
            f"stage {mu}: Fredholm real part off by {consistency:.2e}"
        )
    pc.P_by_stage[mu] = P
    pc.gamma[mu] = gam
    pc.K[mu] = C[f"K{mu}"]
    pc.b1[mu] = fin["b1"]
    pc.b2[mu] = b2
    exposed = required_h_indices() | GREY_HELPERS
    for n, m in solved:
        if (n, m, kmu, lmu) in exposed:
            pc.Hp[n, m, kmu, lmu] = C[hkey(n, m, kmu, lmu)]
    if solve_h21:
        H21 = ctx.sing_solve(fin["rhs21"], g_jterms(ctx, 2, 1, kmu, lmu))
        C[f"H21{mu}"] = H21
        pc.Hp[(2, 1, kmu, lmu)] = H21


def linear_param_coeffs(ctx, crit: CriticalCoeffs) -> ParamCoeffs:
    """K10, K01 and the linear-in-beta part of the H table."""
    pc = ParamCoeffs()
    pieces = _StagePieces(ctx)
    pc.checks["pieces"] = pieces
    _stage(ctx, "10", pieces, pc, solve_h21=True)
    _stage(ctx, "01", pieces, pc, solve_h21=True)
    pc.P = pc.P_by_stage["10"]
    pc.cond_P = np.linalg.cond(pc.P)
    return pc


def a3201_coeff(ctx, crit: CriticalCoeffs, pc: ParamCoeffs) -> ParamCoeffs:
    """g3201 (whose real part is a3201) plus H3001, H3101, H2201, H3201."""
    for idx in ((3, 0, 0, 1), (3, 1, 0, 1), (2, 2, 0, 1)):
        pc.Hp[idx] = solve_regular(ctx, idx)
    M32 = ctx.contract(rhs_terms((3, 2, 0, 1)))
    g3201 = ctx.proj(M32) / 12.0
    pc.g3201 = g3201
    set_gamma(ctx, 2, "01", g3201)
    ctx.C["H3201"] = ctx.sing_solve(M32, g_jterms(ctx, 3, 2, 0, 1))
    pc.Hp[(3, 2, 0, 1)] = ctx.C["H3201"]
    return pc


def higher_param_coeffs(ctx, crit: CriticalCoeffs, pc: ParamCoeffs) -> ParamCoeffs:
    """K02, K11, K03 stages and the remaining H coefficients of the table."""
    pieces = pc.checks["pieces"]
    _stage(ctx, "02", pieces, pc, solve_h21=True)
    _stage(ctx, "11", pieces, pc, solve_h21=False)
    _stage(ctx, "03", pieces, pc, solve_h21=False)
    for idx in ((3, 0, 1, 0), (4, 0, 0, 1), (5, 0, 0, 1), (4, 1, 0, 1), (3, 0, 0, 2)):
        pc.Hp[idx] = solve_regular(ctx, idx)
    del pc.checks["pieces"]
    return pc


def param_coeffs(ctx, crit: CriticalCoeffs) -> ParamCoeffs:
    """Run the full parameter-dependent pipeline in dependency order."""
    pc = linear_param_coeffs(ctx, crit)
    a3201_coeff(ctx, crit, pc)
    higher_param_coeffs(ctx, crit, pc)
    return pc
