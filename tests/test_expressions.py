import itertools

import numpy as np
import pytest

from epsode.expressions import (EvalError, ParseError, VectorExpr, _fmt_num,
                                compile_expr, differentiate, evaluate, parse,
                                to_string)


def ev(src, t=0.0, x=(), params=None):
    return evaluate(parse(src), t, list(x), params)


def test_basic_arithmetic():
    assert ev("x1 + 2*x2", x=(1.0, 3.0)) == 7.0


def test_equal_trees_are_equal_and_hash_alike():
    a, b = parse("sin(x1)*2 + -t^p"), parse("sin(x1) * 2 + -t ^ p")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for other in ("sin(x1)*2 + -t^q", "sin(x2)*2 + -t^p", "2*sin(x1) + -t^p",
                  "cos(x1)*2 + -t^p", "sin(x1)*2 - -t^p", "sin(x1)*3 + -t^p"):
        assert parse(other) != a
    assert parse("x1") != parse("1") and parse("2") == parse("2.0")


def test_cycle_component_vanishes():
    # first component of the circle-cycle field on the cycle
    assert ev("-x2 + x1*(1 - x1^2 - x2^2)", x=(1.0, 0.0)) == 0.0


def test_unbalanced_paren_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(t")
    assert err.value.offset == 5
    assert "')'" in err.value.expected


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(t)")


def test_overflowing_literal_is_a_parse_error_at_its_offset():
    with pytest.raises(ParseError, match="overflows") as err:
        parse("1e400")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("2*x1 + 1.5e309")
    assert err.value.offset == 7
    assert ev("1.7e308") == 1.7e308


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ")


@pytest.mark.parametrize("src,expected", [
    ("2^3^2", 512.0),            # right-associative power
    ("-2^2", -4.0),              # power binds tighter than unary minus
    ("2-3-4", -5.0),
    ("6/3/2", 1.0),
    ("2*3^2", 18.0),
    ("2^-1", 0.5),
    ("-2*3", -6.0),
])
def test_precedence(src, expected):
    assert ev(src) == expected


def test_whitespace_insensitive():
    a = ev(" x1+2 * x2 ", x=(1.0, 3.0))
    b = ev("x1+2*x2", x=(1.0, 3.0))
    assert a == b


def _random_expr(rng, depth=0):
    # safe random family: polynomial combinations under sin/cos/exp wrappers
    atoms = ["t", "x1", "x2", str(round(rng.uniform(-2, 2), 3))]
    if depth >= 3 or rng.uniform() < 0.3:
        return rng.choice(atoms)
    op = rng.choice(["+", "-", "*", "f", "p", "d"])
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    if op == "f":
        fn = rng.choice(["sin", "cos", "exp"])
        if fn == "exp":
            return f"exp(0.3*({a}))"
        return f"{fn}({a})"
    if op == "p":
        return f"({a})^{rng.integers(2, 4)}"
    if op == "d":
        return f"({a})/(1 + ({b})^2)"
    return f"({a}) {op} ({b})"


def test_parse_print_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        src = _random_expr(rng)
        e = parse(src)
        e2 = parse(to_string(e))
        for _ in range(3):
            t = rng.uniform(-2, 2)
            x = rng.uniform(-2, 2, 2)
            assert evaluate(e, t, x) == pytest.approx(
                evaluate(e2, t, x), rel=1e-15, abs=1e-15)


def test_derivative_power_rule():
    d = differentiate(parse("x1^2"), "x1")
    assert evaluate(d, 0.0, [3.0]) == 6.0
    assert to_string(d) == "2*x1"


def test_derivative_by_hand_cycle_field():
    d = differentiate(parse("-x2 + x1*(1 - x1^2 - x2^2)"), "x2")
    assert evaluate(d, 0.0, [1.0, 0.0]) == -1.0


def test_divergence_on_unit_circle():
    comps = ["-x2 + x1*(1 - x1^2 - x2^2)", "x1 + x2*(1 - x1^2 - x2^2)"]
    div = None
    for i, c in enumerate(comps):
        term = differentiate(parse(c), f"x{i + 1}")
        div = term if div is None else parse(f"({to_string(div)}) + ({to_string(term)})")
    for ang in (0.0, 1.0, 2.5, 4.0):
        x = [np.cos(ang), np.sin(ang)]
        assert evaluate(div, 0.0, x) == pytest.approx(-2.0, abs=1e-14)


def test_derivatives_match_finite_differences_500_samples():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        src = _random_expr(rng)
        e = parse(src)
        var = rng.choice(["t", "x1", "x2"])
        d = differentiate(e, var)
        t = rng.uniform(-2, 2)
        x = rng.uniform(-2, 2, 2)
        h = 1e-6 * (1 + abs({"t": t, "x1": x[0], "x2": x[1]}[var]))

        def at(delta):
            tt, xx = t, x.copy()
            if var == "t":
                tt = t + delta
            else:
                xx[int(var[1]) - 1] += delta
            return evaluate(e, tt, xx)

        try:
            fd = (at(h) - at(-h)) / (2 * h)
            exact = evaluate(d, t, x)
            base = evaluate(e, t, x)
        except EvalError:
            continue
        tol = 1e-6 * (1 + abs(base) + abs(exact))
        assert abs(exact - fd) <= tol, f"{src} d/d{var} at t={t}, x={x}"
        checked += 1


def test_abs_derivative_zero_at_zero():
    d = differentiate(parse("abs(x1)"), "x1")
    assert evaluate(d, 0.0, [0.0]) == 0.0
    assert evaluate(d, 0.0, [-2.0]) == -1.0
    assert evaluate(d, 0.0, [3.0]) == 1.0


def test_domain_errors_carry_subexpression():
    with pytest.raises(EvalError, match="log"):
        ev("log(x1 - 2)", x=(1.0,))
    with pytest.raises(EvalError, match="division by zero"):
        ev("1/(x1 - 1)", x=(1.0,))
    with pytest.raises(EvalError, match="sqrt"):
        ev("sqrt(-1 - x1^2)", x=(0.5,))
    with pytest.raises(EvalError, match="power"):
        ev("0^(-1)")
    err = None
    try:
        ev("1 + log(0 - 1)")
    except EvalError as e:
        err = e
    assert "log" in to_string(err.subexpr)


def test_unbound_parameter():
    with pytest.raises(EvalError, match="unbound"):
        ev("mu*x1", x=(1.0,))
    with pytest.raises(ValueError, match="unbound"):
        VectorExpr(["mu*x1"], 1)
    assert VectorExpr(["mu*x1"], 1, {"mu": 2.0}).evaluate(0.0, [3.0])[0] == 6.0


def test_vector_expr_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        VectorExpr(["x3"], 2)


def test_position_annotation():
    e = parse("x1 + sin(t)")
    assert e.op == "+"
    assert e.right.pos == 5


def test_exhaustive_two_operator_forms():
    atoms = ["t", "x1", "2", "0.5"]
    ops = ["+", "-", "*", "/", "^"]
    t, x1 = 1.7, -0.6
    env = {"t": t, "x1": x1}
    for a, b, c in itertools.product(atoms, repeat=3):
        for o1, o2 in itertools.product(ops, repeat=2):
            src = f"{a}{o1}{b}{o2}{c}"
            py = src.replace("^", "**")
            try:
                expected = eval(py, {}, env)  # python shares our precedence
            except ZeroDivisionError:
                continue
            if isinstance(expected, complex):
                continue
            got = ev(src, t=t, x=(x1,))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), src


def test_compiled_paths_agree_with_checked_evaluation():
    rng = np.random.default_rng(17)
    for _ in range(50):
        src = _random_expr(rng)
        e = parse(src)
        f_scalar = compile_expr(e)
        f_array = compile_expr(e, arrays=True)
        t = rng.uniform(-2, 2)
        x = rng.uniform(-2, 2, 2)
        ref = evaluate(e, t, x)
        assert f_scalar(t, x) == pytest.approx(ref, rel=1e-13, abs=1e-13)
        X = rng.uniform(-2, 2, (5, 2))
        vals = np.broadcast_to(f_array(t, X.T), (5,))
        for i in range(5):
            assert vals[i] == pytest.approx(evaluate(e, t, X[i]),
                                            rel=1e-13, abs=1e-13)


def test_to_string_prints_non_finite_constants():
    # a product of large constants folds to inf; int() of it would raise
    folded = parse("1e300*x1*1e300")
    assert to_string(differentiate(folded, "x1")) == "inf"
    assert to_string(parse("x1 + 1e16")) == "x1 + 1e+16"
    assert [_fmt_num(v) for v in (np.inf, -np.inf, np.nan, 3.0)] == [
        "inf", "-inf", "nan", "3"]
