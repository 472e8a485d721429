"""Text format and evaluator for ODE / discrete-DDE right-hand sides.

The grammar is deliberately tiny: newline-separated statements (`state`,
`param`, `const`, `delay`, `d<name> = expr`), with `^` binding tighter than
unary minus and delayed state references written in call syntax `x(t - tau)`.
Evaluation is generic over the scalar type, so the same definition feeds plain
numeric evaluation, compiled integration right-hand sides, and jet-based
derivative extraction.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationError,
    ModelSpecError,
    ParseError,
    UnknownIdentifierError,
)
from .jets import Jet

_FUNCS = ("exp", "log", "sin", "cos", "tanh", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|=))"
)


@dataclass(frozen=True)
class ModelDef:
    name: str
    state_names: tuple[str, ...]
    param_names: tuple[str, ...]
    delay_names: tuple[str, ...]
    delays: tuple[float, ...]
    constants: dict
    equations: tuple

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def n_delays(self) -> int:
        return len(self.delays)

    @property
    def is_dde(self) -> bool:
        return len(self.delays) > 0


class _Lexer:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        while True:
            rest = text[self.pos:]
            if not rest.strip():
                break
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                raise ParseError("unrecognized token", line, self.pos + 1)
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind) + 1))
            self.pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.pos + 1)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value):
        kind, val, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, got {val!r}", self.line, col)


class _Parser:
    """Recursive descent; precedence: +,- < *,/ < unary - < ^ (right-assoc)."""

    def __init__(self, lex: _Lexer, names: dict):
        self.lex = lex
        self.names = names

    def parse(self):
        node = self.expr()
        kind, val, col = self.lex.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing token {val!r}", self.lex.line, col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.lex.peek()
            if val in ("+", "-"):
                self.lex.next()
                node = (val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.lex.peek()
            if val in ("*", "/"):
                self.lex.next()
                node = (val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.lex.peek()
        if val == "-":
            self.lex.next()
            node = self.unary()
            if node[0] == "num":
                return ("num", -node[1])
            return ("neg", node)
        if val == "+":
            self.lex.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.lex.peek()
        if val == "^":
            self.lex.next()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, val, col = self.lex.next()
        if kind == "num":
            return ("num", float(val))
        if val == "(":
            node = self.expr()
            self.lex.expect(")")
            return node
        if kind == "name":
            if val in _FUNCS:
                self.lex.expect("(")
                arg = self.expr()
                self.lex.expect(")")
                return ("call", val, arg)
            entry = self.names.get(val)
            if entry is None:
                raise UnknownIdentifierError(
                    f"unknown identifier {val!r} (line {self.lex.line})"
                )
            tag, idx = entry
            if tag == "state":
                nxt_kind, nxt_val, _ = self.lex.peek()
                if nxt_val == "(":
                    self.lex.next()
                    self.lex.expect("t")
                    self.lex.expect("-")
                    dk, dval, dcol = self.lex.next()
                    dentry = self.names.get(dval)
                    if dentry is None or dentry[0] != "delay":
                        raise UnknownIdentifierError(
                            f"unknown delay {dval!r} (line {self.lex.line})"
                        )
                    self.lex.expect(")")
                    return ("state", idx, dentry[1])
                return ("state", idx, None)
            if tag == "param":
                return ("param", idx)
            if tag == "const":
                return ("num", idx)
            if tag == "delay":
                raise ParseError(
                    f"delay name {val!r} used outside a delayed reference",
                    self.lex.line, col,
                )
        raise ParseError(f"unexpected token {val!r}", self.lex.line, col)


def parse_model(text: str, name: str = "model") -> ModelDef:
    """Parse a .ghm model definition into a validated ModelDef."""
    states: list[str] = []
    params: list[str] = []
    constants: dict = {}
    delay_decl: dict[str, float] = {}
    eq_lines: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0].split("=", 1)[0]
        if head == "state":
            states.extend(line.split()[1:])
        elif head == "param":
            params.extend(line.split()[1:])
        elif head in ("const", "delay"):
            m = re.fullmatch(rf"{head}\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(\S+)", line)
            if m is None:
                raise ParseError(f"malformed {head} statement", lineno, 1)
            try:
                value = float(m.group(2))
            except ValueError:
                raise ParseError(f"bad number in {head} statement", lineno, 1) from None
            if head == "const":
                constants[m.group(1)] = value
            else:
                if value <= 0.0:
                    raise ModelSpecError(
                        f"delay {m.group(1)} must be positive, got {value} (line {lineno})"
                    )
                delay_decl[m.group(1)] = value
        elif head.startswith("d") and "=" in line:
            lhs, rhs = line.split("=", 1)
            eq_lines.append((lhs.strip()[1:], rhs.strip(), lineno))
        else:
            raise ParseError(f"unrecognized statement {head!r}", lineno, 1)
    raw_eqs: dict[str, tuple[str, int]] = {}
    for lhs, rhs, lineno in eq_lines:
        if lhs not in states:
            raise UnknownIdentifierError(
                f"equation for undeclared state {lhs!r} (line {lineno})"
            )
        raw_eqs[lhs] = (rhs, lineno)
    if len(params) != 2:
        raise ModelSpecError(f"exactly 2 active parameters required, got {len(params)}")
    if not states:
        raise ModelSpecError("no state variables declared")
    # sort + dedupe delays ascending, remap names to sorted indices
    unique_vals = sorted(set(delay_decl.values()))
    delay_idx = {name_: unique_vals.index(v) for name_, v in delay_decl.items()}
    names: dict = {}
    for i, s in enumerate(states):
        names[s] = ("state", i)
    for i, p in enumerate(params):
        if p in names:
            raise ModelSpecError(f"name {p!r} declared twice")
        names[p] = ("param", i)
    for c, v in constants.items():
        if c in names:
            raise ModelSpecError(f"name {c!r} declared twice")
        names[c] = ("const", v)
    for d, i in delay_idx.items():
        if d in names:
            raise ModelSpecError(f"name {d!r} declared twice")
        names[d] = ("delay", i)
    equations = []
    for s in states:
        if s not in raw_eqs:
            raise ModelSpecError(f"missing equation d{s} = ...")
        rhs, lineno = raw_eqs[s]
        equations.append(_Parser(_Lexer(rhs, lineno), names).parse())
    return ModelDef(
        name=name,
        state_names=tuple(states),
        param_names=tuple(params),
        delay_names=tuple(sorted(delay_decl, key=lambda k: delay_idx[k])),
        delays=tuple(unique_vals),
        constants=dict(constants),
        equations=tuple(equations),
    )


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print_expr(model: ModelDef, node, parent_prec: int = 0) -> str:
    op = node[0]
    if op == "num":
        v = node[1]
        return repr(v) if v >= 0 else f"({v!r})"
    if op == "state":
        name = model.state_names[node[1]]
        if node[2] is None:
            return name
        return f"{name}(t - {model.delay_names[node[2]]})"
    if op == "param":
        return model.param_names[node[1]]
    if op == "call":
        return f"{node[1]}({_print_expr(model, node[2])})"
    if op == "neg":
        s = f"-{_print_expr(model, node[1], _PREC['neg'])}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    prec = _PREC[op]
    left = _print_expr(model, node[1], prec)
    right = _print_expr(model, node[2], prec + 1)
    s = f"{left} {op} {right}"
    return f"({s})" if parent_prec > prec else s


def print_model(model: ModelDef) -> str:
    """Canonical text form; constants are inlined by the parser."""
    lines = ["state " + " ".join(model.state_names),
             "param " + " ".join(model.param_names)]
    for name, val in zip(model.delay_names, model.delays):
        lines.append(f"delay {name} = {val!r}")
    for s, eq in zip(model.state_names, model.equations):
        lines.append(f"d{s} = {_print_expr(model, eq)}")
    return "\n".join(lines) + "\n"


def _eval_node(node, state_now, state_delayed, params):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "state":
        if node[2] is None:
            return state_now[node[1]]
        return state_delayed[node[2]][node[1]]
    if op == "param":
        return params[node[1]]
    if op == "neg":
        return -_eval_node(node[1], state_now, state_delayed, params)
    if op == "call":
        val = _eval_node(node[2], state_now, state_delayed, params)
        if isinstance(val, Jet):
            return getattr(val, node[1])()
        try:
            return getattr(math, node[1])(val)
        except ValueError as exc:
            raise EvaluationError(f"{node[1]}: {exc}") from None
    a = _eval_node(node[1], state_now, state_delayed, params)
    b = _eval_node(node[2], state_now, state_delayed, params)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        try:
            return a / b
        except ZeroDivisionError:
            raise EvaluationError("division by zero") from None
    if op == "^":
        return a ** b
    raise AssertionError(f"bad node {op}")


def eval_model(model: ModelDef, state_now, state_delayed=(), params=()):
    """Evaluate all equations; scalars may be numbers or jets."""
    if len(state_now) != model.n:
        raise EvaluationError("state vector length mismatch")
    if model.is_dde and len(state_delayed) != model.n_delays:
        raise EvaluationError("delayed-state count mismatch")
    return [_eval_node(eq, state_now, state_delayed, params) for eq in model.equations]


# --- symbolic differentiation and code generation -------------------------

def _simplify(node):
    op = node[0]
    if op in ("num", "state", "param"):
        return node
    if op == "neg":
        a = _simplify(node[1])
        if a[0] == "num":
            return ("num", -a[1])
        return ("neg", a)
    if op == "call":
        return ("call", node[1], _simplify(node[2]))
    a, b = _simplify(node[1]), _simplify(node[2])
    na, nb = a[0] == "num", b[0] == "num"
    if na and nb:
        return ("num", _eval_node((op, a, b), (), (), ()))
    if op == "+":
        if na and a[1] == 0.0:
            return b
        if nb and b[1] == 0.0:
            return a
    if op == "-":
        if nb and b[1] == 0.0:
            return a
        if na and a[1] == 0.0:
            return ("neg", b)
    if op == "*":
        if (na and a[1] == 0.0) or (nb and b[1] == 0.0):
            return ("num", 0.0)
        if na and a[1] == 1.0:
            return b
        if nb and b[1] == 1.0:
            return a
    if op == "/":
        if na and a[1] == 0.0:
            return ("num", 0.0)
        if nb and b[1] == 1.0:
            return a
    if op == "^":
        if nb and b[1] == 1.0:
            return a
        if nb and b[1] == 0.0:
            return ("num", 1.0)
    return (op, a, b)


_CHAIN = {
    "exp": lambda u: ("call", "exp", u),
    "log": lambda u: ("/", ("num", 1.0), u),
    "sin": lambda u: ("call", "cos", u),
    "cos": lambda u: ("neg", ("call", "sin", u)),
    "tanh": lambda u: ("-", ("num", 1.0), ("^", ("call", "tanh", u), ("num", 2.0))),
    "sqrt": lambda u: ("/", ("num", 0.5), ("call", "sqrt", u)),
}


def diff_expr(node, state_idx: int, delay_idx):
    """d(node)/d(state state_idx at delay slot delay_idx), as an expression."""
    return _diff(node, ("state", state_idx, delay_idx))


def diff_param_expr(node, param_idx: int):
    """d(node)/d(param param_idx), as an expression."""
    return _diff(node, ("param", param_idx))


def _diff(node, target):
    op = node[0]
    if op == "num":
        return ("num", 0.0)
    if op in ("state", "param"):
        return ("num", 1.0 if node == target else 0.0)
    if op == "neg":
        return _simplify(("neg", _diff(node[1], target)))
    if op == "call":
        du = _diff(node[2], target)
        return _simplify(("*", _CHAIN[node[1]](node[2]), du))
    a, b = node[1], node[2]
    da = _diff(a, target)
    db = _diff(b, target)
    if op in ("+", "-"):
        return _simplify((op, da, db))
    if op == "*":
        return _simplify(("+", ("*", da, b), ("*", a, db)))
    if op == "/":
        return _simplify(("/", ("-", ("*", da, b), ("*", a, db)), ("^", b, ("num", 2.0))))
    if op == "^":
        if b[0] == "num":
            p = b[1]
            return _simplify(
                ("*", ("*", ("num", p), ("^", a, ("num", p - 1.0))), da)
            )
        # general u^v
        term1 = ("*", db, ("call", "log", a))
        term2 = ("/", ("*", b, da), a)
        return _simplify(("*", node, ("+", term1, term2)))
    raise AssertionError(op)


def _codegen(node) -> str:
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "state":
        if node[2] is None:
            return f"s[{node[1]}]"
        return f"d{node[2]}[{node[1]}]"
    if op == "param":
        return f"p[{node[1]}]"
    if op == "neg":
        return f"(-{_codegen(node[1])})"
    if op == "call":
        return f"np.{node[1]}({_codegen(node[2])})"
    if op == "^":
        return f"({_codegen(node[1])})**({_codegen(node[2])})"
    return f"({_codegen(node[1])} {op} {_codegen(node[2])})"


_COMPILED: dict[tuple, object] = {}


def _once_per_model(compile_fn):
    """Compile once per distinct model: the generated code depends only on the
    equations and the delay count.  The key holds the equations' repr, since
    tuple equality does not tell a 0.0 constant from -0.0."""

    @functools.wraps(compile_fn)
    def cached(model: ModelDef, *args):
        key = (compile_fn.__name__, repr(model.equations), model.n_delays, *args)
        f = _COMPILED.get(key)
        if f is None:
            if len(_COMPILED) >= 256:
                _COMPILED.clear()
            f = _COMPILED[key] = compile_fn(model, *args)
        return f

    return cached


@_once_per_model
def compile_rhs(model: ModelDef):
    """Compile a fast numeric right-hand side.

    ODE models: f(x, p) -> ndarray(n,).  DDE models: f(x, xd, p) where xd is a
    sequence of delayed state vectors, one per delay.  Works elementwise on
    arrays as well as scalars.
    """
    dargs = "".join(f", d{j}" for j in range(model.n_delays))
    body = ", ".join(_codegen(_simplify(eq)) for eq in model.equations)
    src = f"def _rhs(s{dargs}, p):\n    return np.array([{body}])\n"
    ns = {"np": np}
    exec(src, ns)
    f = ns["_rhs"]
    if model.is_dde:
        return lambda x, xd, p: f(x, *xd, p)
    return f


@_once_per_model
def compile_state_jacobian(model: ModelDef, delay_idx=None):
    """Compile x -> d f / d(state at the given delay slot), an (n, n) matrix."""
    rows = []
    for eq in model.equations:
        cols = [_codegen(_simplify(diff_expr(eq, i, delay_idx))) for i in range(model.n)]
        rows.append("[" + ", ".join(cols) + "]")
    dargs = "".join(f", d{j}" for j in range(model.n_delays))
    src = f"def _jac(s{dargs}, p):\n    return np.array([{', '.join(rows)}])\n"
    ns = {"np": np}
    exec(src, ns)
    f = ns["_jac"]
    if model.is_dde:
        return lambda x, xd, p: f(x, *xd, p)
    return f


def _compile_array(model: ModelDef, exprs_flat, shape) -> object:
    body = ", ".join(_codegen(_simplify(e)) for e in exprs_flat)
    dargs = "".join(f", d{j}" for j in range(model.n_delays))
    src = (
        f"def _arr(s{dargs}, p):\n"
        f"    return np.array([{body}]).reshape({shape})\n"
    )
    ns = {"np": np}
    exec(src, ns)
    f = ns["_arr"]
    if model.is_dde:
        return lambda x, xd, p: f(x, *xd, p)
    return f


@_once_per_model
def compile_param_jacobian(model: ModelDef):
    """x -> d f / d alpha, an (n, 2) matrix (current-state slot only)."""
    exprs = [diff_param_expr(eq, a) for eq in model.equations for a in range(2)]
    return _compile_array(model, exprs, (model.n, 2))


@_once_per_model
def compile_state_hessian(model: ModelDef):
    """x -> d^2 f / dx^2, an (n, n, n) tensor (no delays)."""
    n = model.n
    exprs = [
        diff_expr(diff_expr(eq, j, None), l, None)
        for eq in model.equations
        for j in range(n)
        for l in range(n)
    ]
    return _compile_array(model, exprs, (n, n, n))


@_once_per_model
def compile_mixed_hessian(model: ModelDef):
    """x -> d^2 f / dx dalpha, an (n, n, 2) tensor."""
    n = model.n
    exprs = [
        diff_param_expr(diff_expr(eq, j, None), a)
        for eq in model.equations
        for j in range(n)
        for a in range(2)
    ]
    return _compile_array(model, exprs, (n, n, 2))


def equilibrium_residual(model: ModelDef, x, alpha):
    """F(x, alpha) with constant history for DDE models."""
    x = list(x)
    xd = [x] * model.n_delays
    return np.array(eval_model(model, x, xd, list(alpha)), dtype=float)
