"""Generated right-hand sides of the homological equation.

Substituting x = x0 + H(w, wbar, beta) and alpha = alpha0 + K(beta) into the
vector field and collecting the coefficient of
w^N wbar^M beta1^K beta2^L / (N! M! K! L!) gives, by the multivariate Faa di
Bruno formula, one term for every multiset of already known factors whose
indices add up to the target T = (N, M, K, L):

    T! / (prod multiplicity! * prod n! m! k! l!) * D^{r,s}F[H...; K...].

The r state factors are center-manifold coefficients H_{nmkl} (the
eigenvector q is H_{1000}, and H_{mnkl} = conj(H_{nmkl})); the s parameter
factors are parameter-map vectors K_{kl}, indexed (0, 0, k, l).  The
target's own linear term A H_T is left to the solve.

`rhs_terms` returns these terms as (coefficient, form name, argument keys)
for a context's ``contract``.  Argument keys name entries of the coefficient
store: 'q' is the critical eigenvector (eigenfunction for DDEs), 'H2100' etc.
are center-manifold coefficients, '~X' is the complex conjugate of X and
'K01' a parameter-map vector.  A factor is known when it comes before the
target in `SCHEDULE`; a known factor missing from the store makes the
contraction raise instead of dropping the term.
"""

from __future__ import annotations

import functools
import math

# state-order r, parameter-order s per form name (K6/L7 are the 6- and
# 7-linear state derivatives, suffixed to keep them apart from the
# parameter-map symbols K and L)
FORM_ORDERS = {
    "J1": (0, 1),
    "J2": (0, 2),
    "J3": (0, 3),
    "B": (2, 0),
    "C": (3, 0),
    "D": (4, 0),
    "E": (5, 0),
    "K6": (6, 0),
    "L7": (7, 0),
    "A1": (1, 1),
    "B1": (2, 1),
    "C1": (3, 1),
    "D1": (4, 1),
    "E1": (5, 1),
    "A2": (1, 2),
    "B2": (2, 2),
    "C2": (3, 2),
    "A3": (1, 3),
    "B3": (2, 3),
    "C3": (3, 3),
}
FORM_NAMES = {rs: name for name, rs in FORM_ORDERS.items()}

# critical coefficients H_{nm00} in the order they are solved; n = m + 1
# marks the singular equations that fix c1, c2 and c3
CRITICAL = (
    (2, 0), (1, 1), (2, 1), (3, 0), (3, 1), (2, 2), (3, 2), (4, 0), (4, 1),
    (4, 2), (3, 3), (4, 3), (5, 0), (6, 0), (5, 1), (7, 0), (6, 1), (5, 2),
)


def _stage(k: int, l: int) -> tuple:
    """One parameter stage: K_kl, then H_{nmkl} for nm = 00, 10, 20, 11, 21."""
    return ((k, l),) + tuple(
        (n, m, k, l) for n, m in ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1))
    )


# Every equation in the order it is assembled.  A pair (k, l) is the
# parameter map K_kl, a 4-tuple an H coefficient.  The w^2 wbar equations of
# stages 11 and 03 only fix the normal form; their H is never solved.
SCHEDULE = (
    (1, 0, 0, 0),
    *((n, m, 0, 0) for n, m in CRITICAL),
    *_stage(1, 0),
    *_stage(0, 1),
    (3, 0, 0, 1), (3, 1, 0, 1), (2, 2, 0, 1), (3, 2, 0, 1),
    *_stage(0, 2),
    *_stage(1, 1),
    *_stage(0, 3),
    (3, 0, 1, 0), (4, 0, 0, 1), (5, 0, 0, 1), (4, 1, 0, 1), (3, 0, 0, 2),
)


def _fact(idx) -> int:
    return math.prod(math.factorial(i) for i in idx)


# An index is packed four bits per entry (no entry exceeds 7), so that a - b
# is the packed entrywise difference, and b fits into a (b <= a entrywise)
# exactly when subtracting b from a with every entry's bit 3 set clears none
# of those bits.
_GUARD = 0x8888


def _code(idx) -> int:
    return idx[0] << 12 | idx[1] << 8 | idx[2] << 4 | idx[3]


def _fits(b: int, a: int) -> bool:
    return (a | _GUARD) - b & _GUARD == _GUARD


@functools.cache
def _factors() -> tuple:
    """(schedule position, packed index, key, is a parameter map, index!)."""
    out = []
    for pos, idx in enumerate(SCHEDULE):
        if len(idx) == 2:
            out.append((pos, _code((0, 0) + idx), "K%d%d" % idx, True, _fact(idx)))
            continue
        key = "q" if idx == (1, 0, 0, 0) else "H%d%d%d%d" % idx
        out.append((pos, _code(idx), key, False, _fact(idx)))
        if idx[0] != idx[1]:
            conj = (idx[1], idx[0]) + idx[2:]
            out.append((pos, _code(conj), "~" + key, False, _fact(idx)))
    return tuple(out)


@functools.cache
def rhs_terms(target: tuple[int, int, int, int]) -> tuple:
    """Multilinear part of the right-hand side of the `target` equation.

    Only forms named in FORM_ORDERS are generated; the one multiset this
    drops, 3 * D^{4,2}F[q, q, ~q, H0001; K01, K01] at (2, 1, 0, 3), is a
    known omission (it changes K03 and b2 of stage 03).
    """
    pos = SCHEDULE.index(target)
    code = _code(target)
    fitting = [f for f in _factors() if _fits(f[1], code)]
    if any(f[0] > pos for f in fitting):
        raise ValueError(f"{target} is scheduled before one of its factors")
    out = []

    def walk(fitting, rest, chosen, denom, run):
        # `fitting`: the factors, from the last chosen one on, that fit `rest`;
        # `denom`: prod multiplicity! * prod index! of `chosen`, whose last
        # factor has been chosen `run` times
        if not rest:
            state = [f[2] for f in chosen if not f[3]]
            params = [f[2] for f in chosen if f[3]]
            name = FORM_NAMES.get((len(state), len(params)))
            if name is not None:
                out.append((_fact(target) // denom, name, *state, *params))
            return
        for j, f in enumerate(fitting):
            left = rest - f[1]
            again = run + 1 if chosen and chosen[-1] is f else 1
            walk([g for g in fitting[j:] if _fits(g[1], left)], left,
                 chosen + (f,), denom * f[4] * again, again)

    walk([f for f in fitting if f[0] < pos], code, (), 1, 0)
    return tuple(out)


# --- required coefficient index sets -----------------------------------------

def required_h_indices() -> set[tuple[int, int, int, int]]:
    """Center-manifold coefficients entering the higher-order predictor.

    Representatives with n >= m; the n < m entries follow by conjugation.
    """
    out: set[tuple[int, int, int, int]] = set()
    for tot in range(2, 8):
        for n in range((tot + 1) // 2, tot + 1):
            out.add((n, tot - n, 0, 0))
    families = {
        (1, 0): (0, 1, 2, 3),
        (0, 1): (0, 1, 2, 3, 4, 5),
        (0, 2): (0, 1, 2, 3),
        (1, 1): (0, 1),
        (0, 3): (0, 1),
    }
    for (k, l), totals in families.items():
        for tot in totals:
            for n in range((tot + 1) // 2, tot + 1):
                out.add((n, tot - n, k, l))
    return out


GREY_HELPERS = {(1, 1, 0, 3), (2, 0, 0, 3)}
