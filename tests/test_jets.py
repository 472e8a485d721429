import itertools
import math

import numpy as np
import pytest

from ghlpc.errors import CapabilityError
from ghlpc.jets import (
    MAX_DEGREE,
    MAX_DIRS,
    ExactFormEngine,
    FormEngine,
    JetSpace,
    MultilinearQuery,
    _slot_table,
    jet_space,
    multilinear,
    seed_jet,
)
from ghlpc.models import builtin, builtin_names


def test_seed_quadratic_monomial():
    state, _ = seed_jet([0.0], [0.0, 0.0], [(np.array([1.0]), np.zeros(2))], 2)
    out = state[0] * state[0]
    # series 0 + 0 t + 1 t^2
    assert out.c[0] == 0.0 and out.c[1] == 0.0 and out.c[2] == 1.0


def test_seed_degree_zero_is_plain_evaluation():
    state, par = seed_jet([2.0, 3.0], [0.5, 0.25], [], 0)
    assert [s.value for s in state] == [2.0, 3.0]
    assert [p.value for p in par] == [0.5, 0.25]


def test_capability_errors():
    with pytest.raises(CapabilityError):
        jet_space(2, 8)
    with pytest.raises(CapabilityError):
        jet_space(9, 3)


def _loop_tables(n_dirs, degree):
    """JetSpace tables by plain enumeration: every multi-index of total degree
    <= degree in lexicographic order, and the product table in i-major order."""
    multis = [m for m in itertools.product(range(degree + 1), repeat=n_dirs)
              if sum(m) <= degree]
    index = {m: k for k, m in enumerate(multis)}
    mul = []
    for i, mi in enumerate(multis):
        for j, mj in enumerate(multis):
            if sum(mi) + sum(mj) <= degree:
                mul.append((i, j, index[tuple(a + b for a, b in zip(mi, mj))]))
    mul = np.array(mul, dtype=np.int64).reshape(-1, 3)
    return multis, index, {
        "total_deg": np.array([sum(m) for m in multis]),
        "factorial": np.array([math.prod(math.factorial(e) for e in m) for m in multis],
                              dtype=float),
        "_mul_i": mul[:, 0], "_mul_j": mul[:, 1], "_mul_k": mul[:, 2],
    }


def test_jet_space_tables_match_loop_reference():
    # equal tables make np.add.at accumulate in the same order, so every jet
    # product is bit-identical; the size cap covers every space the builtins build
    for n_dirs in range(MAX_DIRS + 1):
        for degree in range(MAX_DEGREE + 1):
            if math.comb(n_dirs + degree, degree) > 462:
                continue
            sp = JetSpace(n_dirs, degree)
            multis, index, arrays = _loop_tables(n_dirs, degree)
            assert sp.multis == multis and sp.index == index
            assert sp.size == len(multis)
            for name, ref in arrays.items():
                got = getattr(sp, name)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (n_dirs, degree, name)


def test_random_cubic_polynomial_exact(rng):
    # all third-order coefficients of a random cubic recovered exactly
    coeffs = rng.normal(size=(2, 4, 4, 4))

    def model(state, params):
        x, y, z = state
        out = []
        for e in range(2):
            acc = 0.0
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        if i + j + k <= 3:
                            acc = acc + coeffs[e, i, j, k] * x**i * y**j * z**k
            out.append(acc)
        return out

    x0 = rng.normal(size=3)
    eng = FormEngine(model, x0, np.zeros(2), 2)
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    got = eng.form([u, v, w])

    # symbolic oracle: differentiate the polynomial explicitly
    import itertools
    expect = np.zeros(2)
    dirs = [u, v, w]
    for e in range(2):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if i + j + k > 3:
                        continue
                    # third mixed directional derivative of x^i y^j z^k
                    mono = (i, j, k)
                    for assign in itertools.product(range(3), repeat=3):
                        counts = [assign.count(a) for a in range(3)]
                        if any(c > m for c, m in zip(counts, mono)):
                            continue
                        fac = coeffs[e, i, j, k]
                        for ax, (m, c) in enumerate(zip(mono, counts)):
                            fac *= math.perm(m, c) * x0[ax] ** (m - c)
                        for slot, ax in enumerate(assign):
                            fac *= dirs[slot][ax]
                        expect[e] += fac
    assert np.allclose(got.real, expect, rtol=1e-12, atol=1e-12)
    assert np.allclose(got.imag, 0.0, atol=1e-12)


def test_monomial_forms():
    def model(state, params):
        x1 = state[0]
        return [x1 * x1, 0.0 * x1]

    eng = FormEngine(model, np.zeros(2), np.zeros(2), 2)
    e1 = np.array([1.0, 0.0])
    assert np.allclose(eng.form([e1, e1]).real, [2.0, 0.0])

    def model3(state, params):
        x1 = state[0]
        return [x1 * x1 * x1, 0.0 * x1]

    eng3 = FormEngine(model3, np.zeros(2), np.zeros(2), 2)
    assert np.allclose(eng3.form([e1, e1, e1]).real, [6.0, 0.0])
    assert np.allclose(eng3.form([e1, e1]).real, [0.0, 0.0])


def test_seventh_order_polynomial_exact(rng):
    # L(q,q,q,q,qb,qb,qb) on x1^4 x2^3 matches the hand contraction exactly
    def model(state, params):
        x1, x2 = state
        return [x1**4 * x2**3, 0.0 * x1]

    eng = FormEngine(model, np.zeros(2), np.zeros(2), 2)
    q = np.array([0.3 + 0.4j, -0.2 + 0.9j])
    args = [q] * 4 + [np.conj(q)] * 3
    got = eng.form(args)
    # D^7 of x1^4 x2^3: nonzero entries are the 4!3! mixed partial times the
    # product of direction components over every placement of four x1-slots
    import itertools
    expect = 0.0 + 0.0j
    for pick in itertools.combinations(range(7), 4):
        term = 1.0 + 0.0j
        for slot in range(7):
            term *= args[slot][0] if slot in pick else args[slot][1]
        expect += term
    expect *= math.factorial(4) * math.factorial(3)
    assert abs(got[0] - expect) < 1e-10 * max(1.0, abs(expect))
    assert abs(got[1]) == 0.0


def test_permutation_symmetry_and_linearity(rng):
    def model(state, params):
        x, y = state
        a, b = params
        return [np.exp(0.3 * x) * np.sin(y) + a * x * y, x * y * y + b * x * x]

    # np functions do not accept jets; use evaluator-compatible wrapper
    def model_jets(state, params):
        x, y = state
        a, b = params
        return [(0.3 * x).exp() * y.sin() + a * x * y, x * y * y + b * x * x]

    x0 = np.array([0.2, -0.4])
    a0 = np.array([0.1, 0.3])
    eng = FormEngine(model_jets, x0, a0, 2)
    u, v, w = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3))
    pv = rng.normal(size=2)
    base = eng.form([u, v, w], [pv])
    for perm in ([v, u, w], [w, v, u], [v, w, u]):
        assert np.allclose(eng.form(perm, [pv]), base, rtol=1e-12, atol=1e-12)
    # linearity in the first slot
    c1, c2 = 0.7 - 0.2j, -1.3 + 0.8j
    lin = eng.form([c1 * u + c2 * w, v, w], [pv])
    expect = c1 * eng.form([u, v, w], [pv]) + c2 * eng.form([w, v, w], [pv])
    assert np.allclose(lin, expect, rtol=1e-12, atol=1e-12)


def test_fd_oracle_low_order(rng):
    def model_jets(state, params):
        x, y = state
        return [(x * y).tanh() + x * x * y, (0.5 * x).exp() - 1.0 + y * y]

    def model_plain(x):
        return np.array([math.tanh(x[0] * x[1]) + x[0] ** 2 * x[1],
                         math.exp(0.5 * x[0]) - 1.0 + x[1] ** 2])

    x0 = np.array([0.3, -0.2])
    eng = FormEngine(model_jets, x0, np.zeros(2), 2)
    u = rng.normal(size=2)
    v = rng.normal(size=2)
    got = eng.form([u, v]).real
    # 4th-order central differences of the directional second derivative
    h = 1e-3

    def dir2(t, s):
        return model_plain(x0 + t * u + s * v)

    fd = np.zeros(2)
    for i, ci in ((-2, 1 / 12), (-1, -2 / 3), (1, 2 / 3), (2, -1 / 12)):
        for j, cj in ((-2, 1 / 12), (-1, -2 / 3), (1, 2 / 3), (2, -1 / 12)):
            fd += ci * cj * dir2(i * h, j * h)
    fd /= h * h
    assert np.allclose(got, fd, rtol=1e-6, atol=1e-8)


def test_multilinear_public_api():
    def model(state, params):
        x = state[0]
        return [x * x * x]

    q = MultilinearQuery(state_dirs=(np.array([1.0]),) * 3, param_dirs=())
    out = multilinear(model, [0.0], [0.0, 0.0], q, n_out=1)
    assert np.allclose(out.real, [6.0])


def test_elementary_function_jets_vs_derivatives():
    sp = jet_space(1, 7)
    x = sp.linear(0.3, {0: 1.0})
    for fn, ref in (
        ("exp", lambda t: math.exp(t)),
        ("tanh", lambda t: math.tanh(t)),
        ("log", lambda t: math.log(t + 1.0)),
        ("sqrt", lambda t: math.sqrt(t + 1.0)),
        ("sin", lambda t: math.sin(t)),
        ("cos", lambda t: math.cos(t)),
    ):
        jet = getattr(x if fn not in ("log", "sqrt") else x + 1.0, fn)()
        h = 1e-2
        ts = np.arange(-3, 4) * h
        vals = np.array([ref(0.3 + t) for t in ts])
        series = np.array([sum(jet.c[k] * t**k for k in range(8)) for t in ts])
        assert np.allclose(series, vals, rtol=1e-10, atol=1e-12), fn


def test_fd_oracle_third_order_mixed(rng):
    # mixed state^2 x parameter form vs central differences of the
    # parameter-derivative of the directional second derivative
    def model_jets(state, params):
        x, y = state
        a, b = params
        return [x * x * (1.0 + a).sqrt() + (y * b).tanh(),
                (x * y * a).exp() - 1.0]

    import math

    def model_plain(x, p):
        return np.array([
            x[0] ** 2 * math.sqrt(1.0 + p[0]) + math.tanh(x[1] * p[1]),
            math.exp(x[0] * x[1] * p[0]) - 1.0,
        ])

    x0 = np.array([0.4, -0.3])
    a0 = np.array([0.2, 0.5])
    eng = FormEngine(model_jets, x0, a0, 2)
    u = rng.normal(size=2)
    v = rng.normal(size=2)
    w = rng.normal(size=2)
    got = eng.form([u, v], [w]).real
    h = 1e-2
    c4 = ((-2, 1 / 12), (-1, -2 / 3), (1, 2 / 3), (2, -1 / 12))
    fd = np.zeros(2)
    for i, ci in c4:
        for j, cj in c4:
            for k, ck in c4:
                fd += ci * cj * ck * model_plain(
                    x0 + (i * u + j * v) * h, a0 + k * h * w)
    fd /= h ** 3
    assert np.allclose(got, fd, rtol=1e-5, atol=1e-7)


def _loop_form(engine, state_dirs, param_dirs):
    """ExactFormEngine.form as a plain loop over every slot tuple."""
    sdirs = [np.asarray(u, dtype=complex) for u in state_dirs]
    pdirs = [np.asarray(v, dtype=complex) for v in param_dirs]
    result = np.zeros(engine.n_out, dtype=complex)
    for sa in itertools.product(range(engine.n_state_slots), repeat=len(sdirs)):
        ws = 1.0 + 0j
        for i, slot in enumerate(sa):
            ws *= sdirs[i][slot]
        if ws == 0.0:
            continue
        sm = tuple(sa.count(k) for k in range(engine.n_state_slots))
        for pa in itertools.product(range(engine.n_params), repeat=len(pdirs)):
            w = ws
            for j, slot in enumerate(pa):
                w *= pdirs[j][slot]
            if w == 0.0:
                continue
            pm = tuple(pa.count(k) for k in range(engine.n_params))
            result += w * engine._partial(sm, pm)
    return result


@pytest.mark.parametrize("name", builtin_names())
def test_exact_forms_bit_identical_to_loop(name, rng):
    bm = builtin(name)
    n_slots = bm.n_slots
    engine = ExactFormEngine(bm.exact_factory(bm.x_guess, bm.alpha_guess),
                             n_slots, 2, bm.model.n)

    def direction(size, kind):
        v = rng.normal(size=size) * 10.0 ** rng.uniform(-2, 2, size=size)
        if kind == "complex":
            v = v + 1j * rng.normal(size=size)
        v[rng.random(size) < 0.3] = 0.0
        return v if kind != "zero" else np.zeros(size)

    for r in range(MAX_DEGREE + 1):
        for s in range(MAX_DEGREE + 1 - r):
            for kind in ("complex", "real", "zero"):
                u = [direction(n_slots, kind) for _ in range(r)]
                v = [direction(2, kind) for _ in range(s)]
                got = engine.form(u, v)
                ref = _loop_form(engine, u, v)
                assert got.tobytes() == ref.tobytes(), (r, s, kind)


def test_exact_form_slot_table_shape():
    slots, ms_id, multisets = _slot_table(4, 7)
    assert slots.shape == (4 ** 7, 7) and slots.dtype == np.int8
    assert ms_id.dtype == np.int16 and len(multisets) == math.comb(10, 3) == 120
    assert [tuple(t) for t in slots.tolist()] == list(itertools.product(range(4), repeat=7))
    assert [multisets[k] for k in ms_id.tolist()] == [
        tuple(t.count(k) for k in range(4)) for t in itertools.product(range(4), repeat=7)]
