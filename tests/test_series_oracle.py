"""Independent oracle for the w^2 wbar beta2^l equations, l = 0..3.

The model is composed with the computed series x0 + H(w, wbar, beta) and
alpha0 + K(beta) on real jets in (u, v, beta2), w = u + iv, beta1 = 0, and
compared with d/dt of the series along the normal form, 2 Re(H_w G).  Only
`eval_model` and jet arithmetic are shared with the pipeline; the term
generator and the form engines are not used.  The solved H_{21kl} drops out
of the Fredholm projection p^* D of the w^2 wbar beta2^l block of the defect
D, so that projection checks the normal-form coefficient of that block
against the complete right-hand side.
"""

from math import comb, factorial

import numpy as np
import pytest

from ghlpc.jets import jet_space
from ghlpc.modeldsl import eval_model

FREDHOLM_TOL = 1e-10
MISSING_TERM = (
    "rhs_terms leaves out 3 D^{4,2}F[q, q, qbar, H0001; K01, K01] at (2, 1, 0, 3), "
    "so K03 and b2_03 are off"
)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _wwbar(i: int, j: int, a: int) -> complex:
    """Coefficient of w^a wbar^(i+j-a) in u^i v^j, with w = u + iv."""
    total = sum(
        comb(i, s) * comb(j, a - s) * (-1) ** (j - a + s)
        for s in range(max(0, a - j), min(i, a) + 1)
    )
    return total / (2 ** i * (2j) ** j)


def _fredholm_blocks(pack) -> list[float]:
    """|p^* D_l| for the w^2 wbar beta2^l block, l = 0..3."""
    cs, crit, pc = pack.cs, pack.crit, pack.pc
    sp = jet_space(3, 6)
    u, v, b = (sp.linear(0.0, {d: 1.0}) for d in range(3))
    one = sp.const(1.0)
    w, wb = (u, v), (u, -v)
    wp, wbp = [(one, sp.zero())], [(one, sp.zero())]
    for _ in range(7):
        wp.append(_cmul(wp[-1], w))
        wbp.append(_cmul(wbp[-1], wb))
    bp = [one, b, b * b, b * b * b]

    # x = x0 + H(w, wbar, (0, beta2)) and its w-derivative, entry by entry
    terms = [(1, 0, 0, cs.q), (0, 1, 0, np.conj(cs.q))]
    for (n, m, k, l), H in cs.Hv.items():
        if k == 0 and l <= 3:
            terms.append((n, m, l, H))
            if n != m:
                terms.append((m, n, l, np.conj(H)))
    x, Hw = [], []
    for i in range(cs.x0.size):
        xi = sp.const(float(cs.x0[i]))
        hre, him = sp.zero(), sp.zero()
        for n, m, l, H in terms:
            scale = 1.0 / (factorial(n) * factorial(m) * factorial(l))
            hr, hi = float(H[i].real) * scale, float(H[i].imag) * scale
            pr, pi = _cmul(wp[n], wbp[m])
            xi = xi + (pr * hr - pi * hi) * bp[l]
            if n >= 1:
                pr, pi = _cmul(wp[n - 1], wbp[m])
                hre = hre + (pr * hr - pi * hi) * bp[l] * float(n)
                him = him + (pr * hi + pi * hr) * bp[l] * float(n)
        x.append(xi)
        Hw.append((hre, him))

    def poly(d):  # d["01"] b + d["02"] b^2 / 2 + d["03"] b^3 / 6
        return b * float(d["01"]) + bp[2] * float(d["02"] / 2) + bp[3] * float(d["03"] / 6)

    alpha = [
        sp.const(float(cs.alpha0[j])) + b * float(pc.K["01"][j])
        + bp[2] * float(pc.K["02"][j] / 2) + bp[3] * float(pc.K["03"][j] / 6)
        for j in range(cs.alpha0.size)
    ]
    # normal form G = w (lambda + c1 |w|^2 + c2 |w|^4 + c3 |w|^6) at beta1 = 0
    r2 = u * u + v * v
    lam = (sp.zero(), poly(pc.b1) + cs.omega0)
    cc1 = (b, poly(pc.b2) + float(crit.c1.imag))
    cc2 = (b * float(pc.g3201.real) + float(crit.c2.real),
           b * float(pc.g3201.imag) + float(crit.c2.imag))
    factor = (
        lam[0] + cc1[0] * r2 + cc2[0] * r2 * r2 + r2 * r2 * r2 * float(crit.c3.real),
        lam[1] + cc1[1] * r2 + cc2[1] * r2 * r2 + r2 * r2 * r2 * float(crit.c3.imag),
    )
    G = _cmul(w, factor)

    F = eval_model(cs.model, x, (), alpha)
    defect = [F[i] - 2.0 * _cmul(Hw[i], G)[0] for i in range(len(F))]
    out = []
    for l in range(4):
        block = np.array([
            sum(D.c[sp.index[(i, 3 - i, l)]] * _wwbar(i, 3 - i, 2) for i in range(4))
            for D in defect
        ])
        out.append(abs(np.vdot(pack.ctx.p, block)))
    return out


CASES = [
    pytest.param(fixture, l, id=f"{fixture}-l{l}", marks=(
        [pytest.mark.xfail(strict=True, reason=MISSING_TERM)]
        if fixture.startswith("bk") and l == 3 else []
    ))
    for fixture in ("bk_pack", "bk_pack_jets", "l84_pack", "l84_pack_exact")
    for l in range(4)
]


@pytest.mark.parametrize("fixture, l", CASES)
def test_w2wbar_beta2_fredholm_projection(fixture, l, request):
    blocks = _fredholm_blocks(request.getfixturevalue(fixture))
    assert blocks[l] <= FREDHOLM_TOL, blocks
