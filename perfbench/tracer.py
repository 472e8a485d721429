"""Span and counter recording around the public functions of each ghlpc module.

The benchmark installs these wrappers from outside the package: every
attribute through which a caller looks a wrapped function up (the defining
module, every ``from .x import f`` binding in another ghlpc module, or the
class for a method) is replaced by a wrapper that records a span
``(name, start, end, parent, call_id)`` or bumps a counter.  Spans are kept in
memory and written out when the run ends.  Self time of a span is its
duration minus the time covered by its child spans.

The table ``WRAPPERS`` names, for each wrapper, the workloads on which it
must record calls; a wrapped name that no longer exists, or that records no
call on such a workload, is reported by name instead of as a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

ALL = ("predict-cli", "verify-exact")
JETS = ("predict-cli",)
EXACT = ("verify-exact",)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, call_id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.call_id = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.call_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, k: float = 1.0) -> None:
        self.counts[name] += k

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds, inclusive seconds]."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) - child[i]
        agg[2] += end - start
    return out


# --- wrapper kinds --------------------------------------------------------

def _span(rec: Recorder, name: str, fn, after=None):
    """Span around fn; `after(rec, args, result)` may add counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.count(name + ".failed")
            raise
        finally:
            rec.close(idx)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _compile(counter: str):
    """Span around a compile_* call; count every call of the compiled closure."""

    def make(rec, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open("modeldsl.compile")
            try:
                compiled = fn(*args, **kwargs)
            finally:
                rec.close(idx)

            def counted(*a, **k):
                rec.count(counter)
                return compiled(*a, **k)

            return counted

        return wrapper

    return make


def _plain(name, after=None):
    return lambda rec, fn: _span(rec, name, fn, after)


def _eval_model(rec, fn):
    from ghlpc.jets import Jet

    def after(rec, args, out):
        state = args[1] if len(args) > 1 else ()
        if len(state) and isinstance(state[0], Jet):
            rec.count("jets.passes")

    return _span(rec, "modeldsl.eval_model", fn, after)


def _contract(rec, fn):
    def after(rec, args, out):
        rec.count("ghode.contract.terms", len(args[1]))

    return _span(rec, "ghode.contract", fn, after)


def _correct_lpc(rec, fn):
    def after(rec, args, out):
        rec.count("verify.correct_lpc.newton_its", out.iterations)

    return _span(rec, "verify.correct_lpc", fn, after)


def _solve_ivp(rec, fn):
    @functools.wraps(fn)
    def wrapper(f, t_span, y0, *args, **kwargs):
        # the first variational system has n + n*n unknowns; the second one,
        # behind the exact shooting Jacobian, adds n^3 + 2n + 2n^2 more
        size = len(y0)
        kind = "first" if any(k + k * k == size for k in range(1, 64)) else "second"
        name = f"verify.solve_ivp.{kind}"
        idx = rec.open(name)
        try:
            sol = fn(f, t_span, y0, *args, **kwargs)
        finally:
            rec.close(idx)
        rec.count(name + ".nfev", sol.nfev)
        return sol

    return wrapper


def _exact_init(rec, fn):
    @functools.wraps(fn)
    def wrapper(self, partials, *args, **kwargs):
        @functools.wraps(partials)
        def counted(*a, **k):
            rec.count("jets.exact.partials_calls")
            return partials(*a, **k)

        return fn(self, counted, *args, **kwargs)

    return wrapper


# (target "module:attr[.method]", factory, workloads where it must record)
WRAPPERS = (
    ("ghlpc.cli:main", _plain("cli.main"), ALL),
    ("ghlpc.modeldsl:parse_model", _plain("modeldsl.parse_model"), ALL),
    ("ghlpc.modeldsl:compile_rhs", _compile("modeldsl.evals.rhs"), ALL),
    ("ghlpc.modeldsl:compile_state_jacobian", _compile("modeldsl.evals.jac"), ALL),
    ("ghlpc.modeldsl:compile_param_jacobian", _compile("modeldsl.evals.jac"), EXACT),
    ("ghlpc.modeldsl:compile_state_hessian", _compile("modeldsl.evals.hess"), EXACT),
    ("ghlpc.modeldsl:compile_mixed_hessian", _compile("modeldsl.evals.hess"), EXACT),
    ("ghlpc.modeldsl:eval_model", _eval_model, JETS),
    ("ghlpc.jets:JetSpace.__init__", _plain("jets.JetSpace"), ("predict-cli",)),
    ("ghlpc.jets:FormEngine.form", _plain("jets.FormEngine.form"), JETS),
    ("ghlpc.jets:ExactFormEngine.form", _plain("jets.ExactFormEngine.form"), EXACT),
    ("ghlpc.jets:ExactFormEngine.__init__", _exact_init, EXACT),
    ("ghlpc.linode:refine_gh", _plain("linode.refine_gh"), ALL),
    ("ghlpc.linode:equilibrium", _plain("linode.equilibrium"), ALL),
    ("ghlpc.linode:bordered_solve", _plain("linode.bordered_solve"), ALL),
    ("ghlpc.ghode:first_lyapunov", _plain("ghode.first_lyapunov"), ALL),
    ("ghlpc.ghode:run_critical", _plain("ghode.run_critical"), ALL),
    ("ghlpc.ghode:OdeContext.contract", _contract, ALL),
    ("ghlpc.ghode:OdeContext.reg_solve", _plain("ghode.solve"), ALL),
    ("ghlpc.ghode:OdeContext.sing_solve", _plain("ghode.solve"), ALL),
    ("ghlpc.dde:DdeContext.contract", _contract, ALL),
    ("ghlpc.dde:DdeContext.reg_solve", _plain("ghode.solve"), ALL),
    ("ghlpc.dde:DdeContext.sing_solve", _plain("ghode.solve"), ALL),
    ("ghlpc.dde:refine_gh_dde", _plain("dde.refine_gh_dde"), ALL),
    ("ghlpc.dde:first_lyapunov_dde", _plain("dde.first_lyapunov_dde"), ALL),
    ("ghlpc.dde:dde_coeffs", _plain("dde.dde_coeffs"), ALL),
    ("ghlpc.dde:resolvent_case", _plain("dde.resolvent_case"), ALL),
    ("ghlpc.dde:bordered_inv_dde", _plain("dde.bordered_inv_dde"), ALL),
    ("ghlpc.ghode_params:param_coeffs", _plain("ghode_params.param_coeffs"), ALL),
    ("ghlpc.predictor:collect", _plain("predictor.collect"), ALL),
    ("ghlpc.predictor:predict", _plain("predictor.predict"), ("predict-cli",)),
    ("ghlpc.predictor:orbit_of_eps", _plain("predictor.orbit_of_eps"), ALL),
    ("ghlpc.verify:convergence_study", _plain("verify.convergence_study"), EXACT),
    ("ghlpc.verify:correct_lpc", _correct_lpc, EXACT),
    ("ghlpc.verify:integrate", _plain("verify.integrate"), EXACT),
    ("ghlpc.verify:solve_ivp", _solve_ivp, EXACT),
    ("ghlpc.verify:dde_residual", _plain("verify.dde_residual"), EXACT),
)


def _hit_counted(rec: Recorder, target: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count("hit:" + target)
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder):
    """Install every wrapper.

    Returns (undo, missing): the replaced bindings, for ``uninstall``, and the
    targets that no longer exist.
    """
    undo, missing = [], []
    for target, factory, _ in WRAPPERS:
        modname, attr = target.split(":")
        try:
            mod = importlib.import_module(modname)
            owner, name = mod, attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(mod, cls)
            orig = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        wrapper = _hit_counted(rec, target, factory(rec, orig))
        if owner is not mod:
            undo.append((owner, name, orig))
            setattr(owner, name, wrapper)
            continue
        for other in list(sys.modules.values()):
            if not getattr(other, "__name__", "").startswith("ghlpc"):
                continue
            for key, val in list(vars(other).items()):
                if val is orig:
                    undo.append((other, key, orig))
                    setattr(other, key, wrapper)
    return undo, missing


def uninstall(undo) -> None:
    for owner, name, orig in reversed(undo):
        setattr(owner, name, orig)
