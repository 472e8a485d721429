import math

import numpy as np
import pytest

from ghlpc.errors import EvaluationError, ModelSpecError, ParseError, UnknownIdentifierError
from ghlpc.jets import jet_space
from ghlpc.modeldsl import (
    _compile_array,
    compile_mixed_hessian,
    compile_param_jacobian,
    compile_rhs,
    compile_state_hessian,
    compile_state_jacobian,
    diff_expr,
    eval_model,
    parse_model,
    print_model,
)
from ghlpc.models import builtin


def test_parse_bazykin():
    bk = builtin("bazykin-khibnik")
    assert bk.model.state_names == ("x", "y")
    assert bk.model.param_names == ("m", "n")
    assert bk.model.n_delays == 0 and not bk.model.is_dde


def test_parse_fhn_delay():
    fhn = builtin("fhn-dde")
    assert fhn.model.delays == (1.7722,)
    assert fhn.model.is_dde


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_model("state x\nparam a b\ndx = q * x\n")


def test_wrong_parameter_count():
    with pytest.raises(ModelSpecError):
        parse_model("state x\nparam a\ndx = -x\n")


def test_nonpositive_delay():
    with pytest.raises(ModelSpecError):
        parse_model("state x\nparam a b\ndelay tau = -1.0\ndx = x(t - tau)\n")


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_model("state x\nparam a b\ndx = x + * 2\n")
    assert "line 3" in str(err.value)


def test_crlf_accepted():
    m = parse_model("state x\r\nparam a b\r\ndx = -x + a - b\r\n")
    assert m.n == 1


def test_print_roundtrip_fixed_point():
    for name in ("bazykin-khibnik", "lorenz84", "fhn-dde"):
        model = builtin(name).model
        text = print_model(model)
        again = parse_model(text, name=model.name)
        assert print_model(again) == text
        assert again.equations == model.equations


def test_bazykin_equilibrium_residual():
    bk = builtin("bazykin-khibnik").model
    out = eval_model(bk, [0.25, 0.5], (), [0.25, 0.125])
    assert max(abs(v) for v in out) < 1e-14


def test_lorenz_zero_state():
    l84 = builtin("lorenz84").model
    out = eval_model(l84, [0.0] * 4, (), [0.0, 0.0])
    # with both parameters zero: (a*F, G, 0, T) = (0, 0.25, 0, 0)
    assert np.allclose(out, [0.0, 0.25, 0.0, 0.0])


def test_jet_degree_zero_matches_plain(rng):
    model = builtin("bazykin-khibnik").model
    x = [0.3, 0.6]
    al = [0.22, 0.14]
    plain = eval_model(model, x, (), al)
    sp = jet_space(2, 2)
    xj = [sp.linear(x[0], {0: 1.0}), sp.linear(x[1], {1: 1.0})]
    aj = [sp.const(al[0]), sp.const(al[1])]
    jet_out = eval_model(model, xj, (), aj)
    for a, b in zip(plain, jet_out):
        assert abs(a - b.value) < 1e-14 * max(1.0, abs(a))


def test_compiled_rhs_matches_eval(rng):
    for name in ("bazykin-khibnik", "lorenz84"):
        model = builtin(name).model
        rhs = compile_rhs(model)
        for _ in range(5):
            x = rng.uniform(0.1, 0.8, size=model.n)
            al = rng.uniform(0.05, 0.3, size=2)
            assert np.allclose(rhs(x, al), eval_model(model, list(x), (), list(al)),
                               rtol=1e-14, atol=1e-14)


def test_compiled_derivatives_match_fd(rng):
    model = builtin("lorenz84").model
    jac = compile_state_jacobian(model, None)
    hess = compile_state_hessian(model)
    fpar = compile_param_jacobian(model)
    mixed = compile_mixed_hessian(model)
    rhs = compile_rhs(model)
    x = rng.uniform(-0.5, 1.0, size=4)
    al = rng.uniform(0.0, 0.3, size=2)
    h = 1e-6
    Jfd = np.array([
        (rhs(x + h * np.eye(4)[j], al) - rhs(x - h * np.eye(4)[j], al)) / (2 * h)
        for j in range(4)
    ]).T
    assert np.allclose(jac(x, al), Jfd, atol=1e-8)
    Hfd = np.array([
        (jac(x + h * np.eye(4)[l], al) - jac(x - h * np.eye(4)[l], al)) / (2 * h)
        for l in range(4)
    ]).transpose(1, 2, 0)
    assert np.allclose(hess(x, al), Hfd, atol=1e-7)
    Pfd = np.array([
        (rhs(x, al + h * np.eye(2)[a]) - rhs(x, al - h * np.eye(2)[a])) / (2 * h)
        for a in range(2)
    ]).T
    assert np.allclose(fpar(x, al), Pfd, atol=1e-8)
    Mfd = np.array([
        (jac(x, al + h * np.eye(2)[a]) - jac(x, al - h * np.eye(2)[a])) / (2 * h)
        for a in range(2)
    ]).transpose(1, 2, 0)
    assert np.allclose(mixed(x, al), Mfd, atol=1e-7)


def test_tanh_in_grammar_and_power_vs_unary_minus():
    m = parse_model("state u\nparam a b\ndu = -u^2 + a*tanh(u) + b\n")
    # ^ binds tighter than unary minus: -u^2 == -(u^2)
    val = eval_model(m, [2.0], (), [0.0, 0.0])[0]
    assert val == -4.0
    val = eval_model(m, [0.5], (), [3.0, 1.0])[0]
    assert abs(val - (-0.25 + 3 * math.tanh(0.5) + 1.0)) < 1e-14


def test_variable_exponent_jets_match_compiled_derivatives():
    # x^y and 2^x on the jets backend against derivatives from diff_expr
    model = parse_model("state x y\nparam a b\ndx = x^y + a*b\ndy = 2^x - y\n")
    x0, al = [1.3, 0.7], [0.2, 0.1]
    sp = jet_space(2, 3)
    xj = [sp.linear(x0[0], {0: 1.0}), sp.linear(x0[1], {1: 1.0})]
    out = eval_model(model, xj, (), [sp.const(a) for a in al])
    third = _compile_array(model, [
        diff_expr(diff_expr(diff_expr(eq, i, None), j, None), k, None)
        for eq in model.equations for i in range(2) for j in range(2) for k in range(2)
    ], (2, 2, 2, 2))
    derivs = {1: compile_state_jacobian(model, None)(x0, al),
              2: compile_state_hessian(model)(x0, al), 3: third(x0, al)}
    for e, jet in enumerate(out):
        assert abs(jet.value - compile_rhs(model)(x0, al)[e]) < 1e-12
        for k, multi in enumerate(sp.multis[1:], start=1):
            slots = [d for d in range(2) for _ in range(multi[d])]
            ref = derivs[len(slots)][(e, *slots)] / sp.factorial[k]
            assert abs(jet.c[k] - ref) < 1e-12 * max(1.0, abs(ref)), (e, multi)


def test_variable_exponent_of_non_positive_base_is_an_evaluation_error():
    sp = jet_space(1, 2)
    x = sp.linear(-0.5, {0: 1.0})
    with pytest.raises(EvaluationError):
        x ** (x + 2.0)
    with pytest.raises(EvaluationError):
        (-2.0) ** x
