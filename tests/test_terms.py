"""The generated right-hand sides of the homological equation."""

import pytest

from ghlpc import terms

# Number of generated terms per target.  For the w^n wbar^m beta^mu equations
# of the parameter stages (nm in 00, 10, 20, 11, 21, mu in 02, 11, 03) the
# count is split into the terms free of the stage's unknowns and the terms
# holding one; stages 10 and 01 have none of the first kind.
COUNTS = {
    (2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (2, 1, 0, 0): 3, (3, 0, 0, 0): 2,
    (3, 1, 0, 0): 6, (2, 2, 0, 0): 8, (3, 2, 0, 0): 15, (4, 0, 0, 0): 4,
    (4, 1, 0, 0): 11, (4, 2, 0, 0): 28, (3, 3, 0, 0): 30, (4, 3, 0, 0): 56,
    (5, 0, 0, 0): 6, (6, 0, 0, 0): 10, (5, 1, 0, 0): 18, (7, 0, 0, 0): 14,
    (6, 1, 0, 0): 29, (5, 2, 0, 0): 46, (3, 0, 0, 1): 9, (3, 1, 0, 1): 27,
    (2, 2, 0, 1): 34, (3, 2, 0, 1): 67, (3, 0, 1, 0): 9, (4, 0, 0, 1): 16,
    (5, 0, 0, 1): 25, (4, 1, 0, 1): 49, (3, 0, 0, 2): 28,
}
STAGE_FIXED = {
    (0, 2): {(0, 0): 3, (1, 0): 5, (2, 0): 11, (1, 1): 13, (2, 1): 30},
    (1, 1): {(0, 0): 4, (1, 0): 8, (2, 0): 17, (1, 1): 22, (2, 1): 51},
    (0, 3): {(0, 0): 8, (1, 0): 15, (2, 0): 33, (1, 1): 41, (2, 1): 96},
}
STAGE_LIVE = {(0, 0): 1, (1, 0): 2, (2, 0): 5, (1, 1): 6, (2, 1): 14}
STAGES = ((1, 0), (0, 1), (0, 2), (1, 1), (0, 3))


def _split(n, m, k, l):
    mu = f"{k}{l}"
    unknown = {"K" + mu} | {f"H{nm}{mu}" for nm in ("00", "10", "20", "11")}
    tl = terms.rhs_terms((n, m, k, l))
    live = [t for t in tl if any(a.lstrip("~") in unknown for a in t[2:])]
    return len(tl) - len(live), len(live)


def test_literal_lists():
    assert terms.rhs_terms((2, 0, 0, 0)) == ((1, "B", "q", "q"),)
    assert terms.rhs_terms((2, 1, 0, 0)) == (
        (1, "C", "q", "q", "~q"),
        (2, "B", "q", "H1100"),
        (1, "B", "~q", "H2000"),
    )
    assert terms.rhs_terms((3, 1, 0, 0)) == (
        (1, "D", "q", "q", "q", "~q"),
        (3, "C", "q", "q", "H1100"),
        (3, "C", "q", "~q", "H2000"),
        (3, "B", "q", "H2100"),
        (1, "B", "~q", "H3000"),
        (3, "B", "H2000", "H1100"),
    )


def test_term_counts():
    for target, count in COUNTS.items():
        assert len(terms.rhs_terms(target)) == count, target
    for k, l in STAGES:
        for (n, m), live in STAGE_LIVE.items():
            fixed = STAGE_FIXED.get((k, l), {}).get((n, m), 0)
            assert _split(n, m, k, l) == (fixed, live), (n, m, k, l)
    # the 42 former tables, with each real-part row counted as its two
    # conjugate terms
    fixed_total = sum(f for per in STAGE_FIXED.values() for f in per.values())
    assert sum(COUNTS.values()) + fixed_total == 909


def test_form_orders_filter_drops_exactly_one_term(monkeypatch):
    every = {(r, s): f"F{r}{s}" for r in range(8) for s in range(4)}
    every.update(terms.FORM_NAMES)
    filtered = {t: terms.rhs_terms(t) for t in terms.SCHEDULE[1:] if len(t) == 4}
    terms.rhs_terms.cache_clear()
    monkeypatch.setattr(terms, "FORM_NAMES", every)
    try:
        full = {t: terms.rhs_terms(t) for t in filtered}
    finally:
        terms.rhs_terms.cache_clear()
    dropped = {t: set(full[t]) - set(filtered[t]) for t in filtered}
    assert {t: d for t, d in dropped.items() if d} == {
        (2, 1, 0, 3): {(3, "F42", "q", "q", "~q", "H0001", "K01", "K01")}
    }
    assert all(set(filtered[t]) <= set(full[t]) for t in filtered)


def test_scheduled_factor_order_is_checked(monkeypatch):
    # H2100 scheduled before H1100, one of its factors
    swapped = list(terms.SCHEDULE)
    i, j = swapped.index((1, 1, 0, 0)), swapped.index((2, 1, 0, 0))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    terms.rhs_terms.cache_clear()
    terms._factors.cache_clear()
    monkeypatch.setattr(terms, "SCHEDULE", tuple(swapped))
    try:
        with pytest.raises(ValueError, match="scheduled before"):
            terms.rhs_terms((2, 1, 0, 0))
    finally:
        terms.rhs_terms.cache_clear()
        terms._factors.cache_clear()
