"""Generated code computes each shared subexpression once and keeps the
bits of the code that writes every tree out in full."""

import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from test_expressions import _random_expr

from epsode import expressions as ex
from epsode import variational as var
from epsode.systems import builtin_names, builtin_system


# -- reference: the generator that writes every tree out in full ----------

def _full_codegen(e, params):
    if isinstance(e, ex.Num):
        return repr(e.value)
    if isinstance(e, ex.Var):
        return "t" if e.name == "t" else f"x[{e.index}]"
    if isinstance(e, ex.Param):
        return repr(float(params[e.name]))
    if isinstance(e, ex.Neg):
        return f"(-{_full_codegen(e.child, params)})"
    if isinstance(e, ex.Call):
        return f"_{e.fn}({_full_codegen(e.arg, params)})"
    if isinstance(e, (list, tuple)):
        return "[" + ", ".join(_full_codegen(c, params) for c in e) + "]"
    a = _full_codegen(e.left, params)
    b = _full_codegen(e.right, params)
    integral = isinstance(e.right, ex.Num) and e.right.value.is_integer()
    if e.op == "^" and not integral:
        return f"_pow({a}, {b})"
    op = "**" if e.op == "^" else e.op
    return f"({a}{op}{b})"


def _full_lane_source(sysd, eps, tangents, forcings):
    k, m = sysd.k, tangents + len(forcings)
    phi, psi = sysd.phi_exprs, sysd.psi_exprs

    def full(a, b):
        return ex._add(ex._mul(ex.Num(eps), a), b) if eps else b

    lines = ["def f(t, x):"]
    out = [_full_codegen(full(a, b), sysd.params)
           for a, b in zip(phi.components, psi.components)]
    if m:
        J = [[full(a, b) for a, b in zip(ra, rb)]
             for ra, rb in zip(phi.jacobian_exprs(), psi.jacobian_exprs())]
        J = [[(j, e) for j, e in enumerate(row) if not ex._num(e, 0)]
             for row in J]
        lines += [f"j{i}_{j} = {_full_codegen(e, sysd.params)}"
                  for i, row in enumerate(J) for j, e in row]
        for i, col in product(range(k), range(m)):
            terms = [f"j{i}_{j}*x[{k + j * m + col}]" for j, _ in J[i]]
            if col >= tangents:
                drive = forcings[col - tangents]
                e = drive.phi_exprs.components[i]
                if not ex._num(e, 0):
                    terms.append(_full_codegen(e, drive.params))
            out.append(" + ".join(terms) or "0.0")
    return "\n    ".join(lines + [f"return [{', '.join(out)}]"]) + "\n"


def _full_compile_expr(e, params=None, arrays=False):
    return ex.compile_source(
        f"def f(t, x):\n    return {_full_codegen(e, params or {})}\n", arrays)


# -- comparison -------------------------------------------------------------

def _bits(value, n=1):
    """The exact bits of a nested list of floats or of arrays, each array
    leaf broadcast to (n,)."""
    if isinstance(value, list):
        return tuple(_bits(v, n) for v in value)
    if isinstance(value, float):
        return value.hex()
    return np.broadcast_to(np.asarray(value, dtype=float), (n,)).tobytes()


def _outcome(f, t, x, n=1):
    """The bits ``f`` returns, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return _bits(f(t, x), n)
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        return type(err).__name__, str(err)


def _variants():
    for name in builtin_names():
        sysd = builtin_system(name)
        for eps, tangents, forced in product((0.0, 0.37), (0, sysd.k),
                                             (False, True)):
            yield pytest.param(sysd, eps, tangents, (sysd,) if forced else (),
                               id=f"{name}-eps{eps}-tangents{tangents}"
                                  f"-{'self' if forced else 'none'}")
    # a forcing whose parameter differs from the system's own
    e2 = builtin_system("e2-resonance")
    yield pytest.param(e2, 0.2, 2, (builtin_system("e2-resonance",
                                                   {"lam": 2.0}),),
                       id="e2-resonance-forced-by-lam2")


@pytest.mark.parametrize("sysd,eps,tangents,forcings", _variants())
def test_lane_bits_match_full_trees(sysd, eps, tangents, forcings):
    ref = _full_lane_source(sysd, eps, tangents, forcings)
    new = var._lane_source(sysd, eps, tangents, forcings)
    dim = sysd.k * (1 + tangents + len(forcings))
    rng = np.random.default_rng(41)
    # Python's x**2.0 differs from x*x in about 0.1% of the last bits, so
    # the math binding needs enough points to tell them apart
    for arrays, n, points in ((False, 1, 2000), (True, 9, 20)):
        f_ref = ex.compile_source(ref, arrays)
        f_new = ex.compile_source(new, arrays)
        for _ in range(points):
            t = float(rng.uniform(-7, 7))
            X = rng.uniform(-3, 3, (dim, n)) if arrays else \
                rng.uniform(-3, 3, dim).tolist()
            assert _outcome(f_new, t, X, n) == _outcome(f_ref, t, X, n)


def _expression_cases():
    fixed = ["x1 + 2*x2", "-x2 + x1*(1 - x1^2 - x2^2)", "2^3^2", "-2^2",
             "2-3-4", "6/3/2", "2*3^2", "2^-1", "-2*3",
             "sqrt(x1^2 + x2^2) + sqrt(x1^2 + x2^2)^p",
             "log(x1) + log(x1)*x2 + abs(x2 - p) + sign(x2 - p)"]
    rng = np.random.default_rng(5)
    trees = [ex.parse(s) for s in fixed]
    trees += [ex.parse(_random_expr(rng)) for _ in range(200)]
    cases = [(e, {"p": 0.5}) for e in trees]
    # nested lists: each tree with its gradient, as the Jacobian rows are
    for e in trees[::10]:
        cases.append(([[e, ex.differentiate(e, "x1")],
                       [ex.differentiate(e, "x2"), e]], {"p": 1.5}))
    return cases


def test_compile_expr_bits_match_full_trees():
    rng = np.random.default_rng(7)
    for e, params in _expression_cases():
        for arrays, n, points in ((False, 1, 200), (True, 6, 3)):
            f_ref = _full_compile_expr(e, params, arrays)
            f_new = ex.compile_expr(e, params, arrays)
            for _ in range(points):
                t = float(rng.uniform(-2, 2))
                x = rng.uniform(-2, 2, (2, n)) if arrays else \
                    rng.uniform(-2, 2, 2).tolist()
                assert _outcome(f_new, t, x, n) == _outcome(f_ref, t, x, n), e


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_constant_compiles_in_both_bindings(value):
    scalar = ex.compile_expr(ex.parse("k*x1"), {"k": value})(0.0, [1.0])
    array = ex.compile_expr(ex.parse("k*x1"), {"k": value},
                            arrays=True)(0.0, [np.array([1.0, 2.0])])
    np.testing.assert_array_equal([scalar, *array], [value] * 3)
    # a folded constant, as the forcing's eps is, too
    np.testing.assert_array_equal(ex.compile_expr(ex.Num(value))(0.0, []),
                                  value)


def test_an_infinite_eps_is_a_failed_flow():
    from epsode.solver import IntegrationError

    e1 = builtin_system("e1-circle")
    with pytest.raises(IntegrationError):
        var.flow_lanes(e1, 0.0, 1.0, (1.0, 0.0), eps=np.inf)


def test_e1_shared_factor_is_computed_once():
    e1 = builtin_system("e1-circle")
    src = var._lane_source(e1, 0.0, 0, (e1,))
    assert src.count("((1.0-(x0**2.0))-(x1**2.0))") == 1
    # each component is read from the lane once, into a local
    assert [src.count(f"x[{i}]") for i in range(5)] == [1, 1, 1, 1, 0]


def test_generated_source_does_not_depend_on_hash_seed():
    code = ("from epsode import systems as s, variational as v\n"
            "for name in s.builtin_names():\n"
            "    e = s.builtin_system(name)\n"
            "    print(v._lane_source(e, 0.1, e.k, (e,)))\n")
    src_dir = os.path.dirname(os.path.dirname(ex.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] and "c0 = " in outs[0]
