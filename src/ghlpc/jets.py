"""Truncated multivariate Taylor (jet) arithmetic and multilinear-form extraction.

A jet carries all mixed directional derivatives of a smooth function up to a
fixed total degree, over a small set of seeded directions.  Propagating jets
through a model's right-hand side gives derivatives that are exact up to float
roundoff, which is what makes seventh-order derivative tensors usable at all;
finite differences survive only as a low-order cross-check in the tests.

Multilinear forms of mixed state/parameter order are read off by polarization:
seed ``x0 + sum_i t_i u_i``, ``alpha0 + sum_j s_j v_j`` and scale the jet
coefficient of the matching monomial by its multi-index factorial.  Complex
directions are split into real and imaginary parts before seeding (the jet
core stays real) and recombined linearly afterwards.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, EvaluationError

MAX_DEGREE = 7
MAX_DIRS = 8

_SPACE_CACHE: dict[tuple[int, int], "JetSpace"] = {}


class JetSpace:
    """Index tables for jets in `n_dirs` variables truncated at `degree`."""

    def __init__(self, n_dirs: int, degree: int):
        if degree > MAX_DEGREE:
            raise CapabilityError(f"jet degree {degree} exceeds maximum {MAX_DEGREE}")
        if n_dirs > MAX_DIRS:
            raise CapabilityError(f"{n_dirs} directions exceed maximum {MAX_DIRS}")
        self.n_dirs = n_dirs
        self.degree = degree
        radix = degree + 1
        # every multi-index with entries <= degree, in lexicographic order;
        # int8 keeps the full grid small (entries and sums stay <= 56)
        grid = np.indices((radix,) * n_dirs, dtype=np.int8).reshape(n_dirs, radix ** n_dirs)
        multis = grid[:, grid.sum(axis=0, dtype=np.int8) <= degree].T.astype(np.int64)
        self.multis = [tuple(m) for m in multis.tolist()]
        self.index = {m: k for k, m in enumerate(self.multis)}
        self.size = len(self.multis)
        self.total_deg = multis.sum(axis=1)
        self.factorial = np.prod(
            np.array([math.factorial(e) for e in range(radix)], dtype=float)[multis], axis=1
        )
        # Lexicographic order is the order of the mixed-radix codes, and two
        # multi-indices of total degree <= degree add without carry, so the
        # product monomial of (i, j) is found by searching the sum of codes.
        code = multis @ radix ** np.arange(n_dirs - 1, -1, -1)
        self._mul_i, self._mul_j = np.nonzero(
            self.total_deg[:, None] + self.total_deg[None, :] <= degree
        )
        self._mul_k = np.searchsorted(code, code[self._mul_i] + code[self._mul_j])

    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.size))

    def const(self, value: float) -> "Jet":
        c = np.zeros(self.size)
        c[0] = value
        return Jet(self, c)

    def linear(self, value: float, slope: dict[int, float]) -> "Jet":
        """Jet of value + sum_d slope[d]*t_d."""
        c = np.zeros(self.size)
        c[0] = value
        for d, s in slope.items():
            unit = tuple(1 if k == d else 0 for k in range(self.n_dirs))
            c[self.index[unit]] = s
        return Jet(self, c)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        np.add.at(out, self._mul_k, a[self._mul_i] * b[self._mul_j])
        return out


def jet_space(n_dirs: int, degree: int) -> JetSpace:
    key = (n_dirs, degree)
    sp = _SPACE_CACHE.get(key)
    if sp is None:
        sp = _SPACE_CACHE[key] = JetSpace(n_dirs, degree)
    return sp


# Derivative polynomials of tanh: tanh^(k) = P_k(tanh), P_{k+1} = P_k' * (1 - T^2).
def _tanh_derivative_polys(order: int) -> list[np.ndarray]:
    polys = [np.array([0.0, 1.0])]  # P_0(T) = T, ascending powers
    for _ in range(order):
        p = polys[-1]
        dp = np.arange(1, len(p)) * p[1:]
        nxt = np.zeros(len(dp) + 2)
        nxt[: len(dp)] += dp
        nxt[2 : 2 + len(dp)] -= dp
        polys.append(nxt)
    return polys


_TANH_POLYS = _tanh_derivative_polys(MAX_DEGREE)


@dataclass(frozen=True)
class Jet:
    """Immutable truncated Taylor series over a JetSpace.

    ``c[k]`` is the coefficient of the monomial ``space.multis[k]`` in the
    seeded variables, i.e. the mixed derivative divided by the multi-index
    factorial.
    """

    space: JetSpace
    c: np.ndarray

    @property
    def value(self) -> float:
        return self.c[0]

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces")
            return other
        return self.space.const(float(other))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.c + o.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        return Jet(self.space, o.c - self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.space, self.c * other)
        o = self._coerce(other)
        return Jet(self.space, self.space.mul(self.c, o.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet(self.space, self.c / other)
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        rec = self._reciprocal()
        if isinstance(other, (int, float)):
            return rec * other
        return self._coerce(other) * rec

    def __pow__(self, p):
        if isinstance(p, Jet):
            # a variable exponent: a ** b = exp(b log a)
            if self.value <= 0.0:
                raise EvaluationError("variable exponent of a non-positive base")
            return (self._coerce(p) * self.log()).exp()
        if isinstance(p, int) or (isinstance(p, float) and p == int(p)):
            k = int(p)
            if k < 0:
                return (self ** (-k))._reciprocal()
            if k == 0:
                return self.space.const(1.0)
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        u0 = self.value
        if u0 <= 0.0:
            raise EvaluationError("non-integer power of non-positive base")
        coeffs = [u0 ** p]
        for k in range(1, self.space.degree + 1):
            coeffs.append(coeffs[-1] * (p - k + 1) / (k * u0))
        return self._compose(coeffs)

    def __rpow__(self, base):
        if base <= 0.0:
            raise EvaluationError("variable exponent of a non-positive base")
        return (self * math.log(base)).exp()

    def _compose(self, series: list[float]) -> "Jet":
        """Evaluate sum_k series[k]*(self - value)^k by Horner."""
        w = Jet(self.space, self.c.copy())
        w.c[0] = 0.0
        out = self.space.const(series[-1])
        for a in reversed(series[:-1]):
            out = out * w + a
        return out

    def _reciprocal(self) -> "Jet":
        u0 = self.value
        if u0 == 0.0:
            raise EvaluationError("division by a jet with zero value")
        coeffs = [(-1.0) ** k / u0 ** (k + 1) for k in range(self.space.degree + 1)]
        return self._compose(coeffs)

    def exp(self) -> "Jet":
        e = math.exp(self.value)
        coeffs = [e / math.factorial(k) for k in range(self.space.degree + 1)]
        return self._compose(coeffs)

    def log(self) -> "Jet":
        u0 = self.value
        if u0 <= 0.0:
            raise EvaluationError("log of non-positive jet value")
        coeffs = [math.log(u0)]
        for k in range(1, self.space.degree + 1):
            coeffs.append((-1.0) ** (k + 1) / (k * u0 ** k))
        return self._compose(coeffs)

    def sqrt(self) -> "Jet":
        return self ** 0.5

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = [s, c, -s, -c]
        coeffs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.degree + 1)]
        return self._compose(coeffs)

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        cycle = [c, -s, -c, s]
        coeffs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.degree + 1)]
        return self._compose(coeffs)

    def tanh(self) -> "Jet":
        t0 = math.tanh(self.value)
        coeffs = [
            float(np.polyval(_TANH_POLYS[k][::-1], t0)) / math.factorial(k)
            for k in range(self.space.degree + 1)
        ]
        return self._compose(coeffs)


def seed_jet(x0, alpha0, dirs, degree: int):
    """Seed jets for simultaneous directional differentiation.

    `dirs` is a list of (state_dir, param_dir) pairs; complex pairs are split
    into real and imaginary parts (each becoming its own seeded variable), so
    the returned seeds are always real-valued jets.  Evaluating the model on
    the returned (state_seeds, param_seeds) yields every mixed directional
    derivative up to total `degree` among the seeded directions.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    real_dirs: list[tuple[np.ndarray, np.ndarray]] = []
    for sd, pd in dirs:
        sd = np.atleast_1d(np.asarray(sd, dtype=complex))
        pd = np.atleast_1d(np.asarray(pd, dtype=complex))
        for part in (np.real, np.imag):
            s, p = part(sd), part(pd)
            if np.any(s != 0.0) or np.any(p != 0.0):
                real_dirs.append((s, p))
    if not real_dirs and dirs:
        real_dirs.append((np.zeros_like(x0), np.zeros(alpha0.shape)))
    if len(real_dirs) > MAX_DIRS:
        raise CapabilityError(f"{len(real_dirs)} real directions exceed maximum {MAX_DIRS}")
    sp = jet_space(len(real_dirs), degree)
    state_seeds = [
        sp.linear(x0[a], {d: real_dirs[d][0][a] for d in range(len(real_dirs))})
        for a in range(x0.size)
    ]
    param_seeds = [
        sp.linear(alpha0[j], {d: real_dirs[d][1][j] for d in range(len(real_dirs))})
        for j in range(alpha0.size)
    ]
    return state_seeds, param_seeds


@dataclass(frozen=True)
class MultilinearQuery:
    state_dirs: tuple
    param_dirs: tuple

    @property
    def state_order(self) -> int:
        return len(self.state_dirs)

    @property
    def param_order(self) -> int:
        return len(self.param_dirs)


class FormEngine:
    """Mixed multilinear forms D1^r D2^s F(x0, a0)[u_1..u_r; v_1..v_s].

    `eval_fn(state_scalars, param_scalars)` must evaluate the model
    generically over plain numbers or jets and return a sequence of n_out
    scalars.  Evaluations are cached per (direction set, degree): one jet
    pass serves every contraction over the same directions.
    """

    def __init__(self, eval_fn, x_base, alpha_base, n_out: int):
        self.eval_fn = eval_fn
        self.x_base = np.asarray(x_base, dtype=float)
        self.alpha_base = np.asarray(alpha_base, dtype=float)
        self.n_out = n_out
        self._dirs: list[tuple[str, np.ndarray]] = []
        self._dir_keys: dict[bytes, int] = {}
        self._evals: dict[tuple, tuple] = {}

    def _register(self, kind: str, vec: np.ndarray) -> tuple[int, float]:
        key = (kind + "+").encode() + vec.tobytes()
        idx = self._dir_keys.get(key)
        if idx is not None:
            return idx, 1.0
        keyn = (kind + "+").encode() + (-vec).tobytes()
        idx = self._dir_keys.get(keyn)
        if idx is not None:
            return idx, -1.0
        idx = len(self._dirs)
        self._dirs.append((kind, vec.copy()))
        self._dir_keys[key] = idx
        return idx, 1.0

    def _decompose(self, kind: str, vec) -> list[tuple[complex, int]]:
        vec = np.asarray(vec, dtype=complex)
        parts = []
        re, im = vec.real, vec.imag
        if np.any(re != 0.0):
            idx, sgn = self._register(kind, re)
            parts.append((sgn + 0j, idx))
        if np.any(im != 0.0):
            idx, sgn = self._register(kind, im)
            parts.append((1j * sgn, idx))
        return parts

    def _evaluate(self, dir_ids: tuple[int, ...], degree: int):
        for deg in range(degree, MAX_DEGREE + 1):
            hit = self._evals.get((dir_ids, deg))
            if hit is not None:
                return hit
        sp = jet_space(len(dir_ids), degree)
        state_seeds = []
        for a in range(self.x_base.size):
            slope = {}
            for d, gid in enumerate(dir_ids):
                kind, vec = self._dirs[gid]
                if kind == "x":
                    slope[d] = vec[a]
            state_seeds.append(sp.linear(self.x_base[a], slope))
        param_seeds = []
        for j in range(self.alpha_base.size):
            slope = {}
            for d, gid in enumerate(dir_ids):
                kind, vec = self._dirs[gid]
                if kind == "a":
                    slope[d] = vec[j]
            param_seeds.append(sp.linear(self.alpha_base[j], slope))
        out = self.eval_fn(state_seeds, param_seeds)
        coeffs = np.empty((self.n_out, sp.size))
        for e, jete in enumerate(out):
            coeffs[e] = jete.c if isinstance(jete, Jet) else np.array(
                [float(jete)] + [0.0] * (sp.size - 1)
            )
        if not np.all(np.isfinite(coeffs)):
            raise EvaluationError("non-finite model output in jet evaluation")
        result = (sp, coeffs)
        self._evals[(dir_ids, degree)] = result
        return result

    def form(self, state_dirs, param_dirs=()) -> np.ndarray:
        r, s = len(state_dirs), len(param_dirs)
        degree = r + s
        if degree > MAX_DEGREE:
            raise CapabilityError(f"multilinear order {degree} exceeds {MAX_DEGREE}")
        arg_parts = [self._decompose("x", u) for u in state_dirs]
        arg_parts += [self._decompose("a", v) for v in param_dirs]
        used = sorted({idx for parts in arg_parts for _, idx in parts})
        if len(used) > MAX_DIRS:
            raise CapabilityError(f"{len(used)} simultaneous directions exceed {MAX_DIRS}")
        dir_ids = tuple(used)
        local = {gid: d for d, gid in enumerate(dir_ids)}
        sp, coeffs = self._evaluate(dir_ids, degree)
        result = np.zeros(self.n_out, dtype=complex)
        for choice in itertools.product(*arg_parts):
            w = 1.0 + 0j
            counts = [0] * sp.n_dirs
            for coef, gid in choice:
                w *= coef
                counts[local[gid]] += 1
            k = sp.index[tuple(counts)]
            result += (w * sp.factorial[k]) * coeffs[:, k]
        return result


@functools.cache
def _slot_table(n_slots: int, order: int):
    """Every tuple of `order` slots in itertools.product order (int8 rows), the
    id of each tuple's multiset (int16) and the multisets as slot-count tuples,
    sorted."""
    # np.indices runs the last slot fastest, as itertools.product does
    slots = np.indices((n_slots,) * order, dtype=np.int8).reshape(order, n_slots ** order).T
    radix = order + 1
    code = np.zeros(len(slots), dtype=np.int32)
    for k in range(n_slots):
        code = code * radix + (slots == k).sum(axis=1, dtype=np.int8)
    # np.unique would import numpy.ma, about 1 MB
    seen = np.zeros(radix ** n_slots, dtype=bool)
    seen[code] = True
    ms_id = (np.cumsum(seen, dtype=np.int16) - 1)[code]
    multisets = [tuple(c // radix ** (n_slots - 1 - k) % radix for k in range(n_slots))
                 for c in np.flatnonzero(seen).tolist()]
    slots.flags.writeable = ms_id.flags.writeable = False  # shared by every engine
    return slots, ms_id, multisets


class ExactFormEngine:
    """Multilinear forms from an exact partial-derivative closure.

    `partials(state_multi, param_multi)` returns the n_out-vector of mixed
    partial derivatives at the expansion point; state_multi has one entry per
    state slot, param_multi one per active parameter.

    `form` gives the sum over all slot tuples, in itertools.product order, of
    weight * partial, bit for bit as a loop of ``result += w * partial`` from
    zero: terms whose weight or partial is zero add only a signed zero, so they
    are dropped (unless a direction is not finite, where w * 0 is NaN), and
    the remaining ones are summed by a sequential ``np.add.accumulate``.
    """

    def __init__(self, partials, n_state_slots: int, n_params: int, n_out: int):
        self.partials = partials
        self.n_state_slots = n_state_slots
        self.n_params = n_params
        self.n_out = n_out
        self._cache: dict[tuple, np.ndarray] = {}
        self._plans: dict[tuple, tuple] = {}

    def _partial(self, sm: tuple[int, ...], pm: tuple[int, ...]) -> np.ndarray:
        key = (sm, pm)
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = np.asarray(self.partials(sm, pm), dtype=float)
        return val

    def _plan(self, r: int, s: int, dense: bool = False):
        """The slot tuples that forms of order (r, s) sum over: the columns of
        the state tuples that meet a nonzero partial (all of them if `dense`)
        and of every param tuple, which (state, param) pairs have a nonzero
        partial, and the partial of each pair."""
        key = (r, s, dense)
        plan = self._plans.get(key)
        if plan is None:
            s_slots, s_ms, sms = _slot_table(self.n_state_slots, r)
            p_slots, p_ms, pms = _slot_table(self.n_params, s)
            P = np.array([[self._partial(sm, pm) for pm in pms] for sm in sms])
            nonzero = np.any(P != 0.0, axis=2) | dense
            rows = np.flatnonzero(nonzero.any(axis=1)[s_ms])
            ms = s_ms[rows, None]
            plan = (tuple(s_slots[rows, i].astype(np.intp) for i in range(r)),
                    tuple(p_slots[:, j].astype(np.intp) for j in range(s)),
                    nonzero[ms, p_ms], P[ms, p_ms])
            if not dense:
                self._plans[key] = plan
        return plan

    def form(self, state_dirs, param_dirs=()) -> np.ndarray:
        sdirs = [np.asarray(u, dtype=complex) for u in state_dirs]
        pdirs = [np.asarray(v, dtype=complex) for v in param_dirs]
        dense = not all(np.isfinite(d).all() for d in sdirs + pdirs)
        s_cols, p_cols, nonzero, P = self._plan(len(sdirs), len(pdirs), dense)
        if not len(nonzero):
            return np.zeros(self.n_out, dtype=complex)
        # Weights multiply in split real arithmetic, state slots first, as the
        # scalar complex product does; numpy's complex array product may fuse.
        re, im = np.ones(len(nonzero)), np.zeros(len(nonzero))
        for d, col in zip(sdirs, s_cols):
            d = d[col]
            re, im = re * d.real - im * d.imag, re * d.imag + im * d.real
        live = nonzero & ((re != 0.0) | (im != 0.0))[:, None]
        re, im = re[:, None], im[:, None]
        for d, col in zip(pdirs, p_cols):
            d = d[col]
            re, im = re * d.real - im * d.imag, re * d.imag + im * d.real
        live &= (re != 0.0) | (im != 0.0)
        w = np.empty(np.count_nonzero(live), dtype=complex)
        w.real, w.imag = re[live], im[live]
        terms = np.zeros((len(w) + 1, self.n_out), dtype=complex)
        np.multiply(w[:, None], P[live], out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]


def multilinear(eval_fn, x0, alpha0, query: MultilinearQuery, n_out: int | None = None):
    """Evaluate one mixed multilinear form of the model at (x0, alpha0)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if n_out is None:
        n_out = x0.size
    engine = FormEngine(eval_fn, x0, np.asarray(alpha0, dtype=float), n_out)
    return engine.form(list(query.state_dirs), list(query.param_dirs))
