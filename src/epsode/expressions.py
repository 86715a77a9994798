"""Small arithmetic expression language for defining vector fields.

Expressions are parsed into an immutable AST over the variables ``t`` and
``x1 .. xk``, named parameters, the operators ``+ - * / ^`` (with ``^``
right-associative and binding tighter than unary minus) and the functions
``sin cos tan exp log sqrt abs``.  The AST supports evaluation (scalars or
numpy arrays), exact symbolic differentiation and round-trippable printing.

``sign`` is accepted as an additional function so that derivatives of
``abs`` stay expressible inside the language; ``sign(0) = 0`` and the
derivative of ``abs`` at 0 is defined as 0.
"""

import math
import re

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Param", "Neg", "BinOp", "Call",
    "ParseError", "EvalError", "parse", "differentiate", "to_string",
    "free_names", "compile_expr", "VectorExpr",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sign")

_VAR_RE = re.compile(r"^x[1-9][0-9]*$")


class ParseError(ValueError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message, source, offset, expected=()):
        self.source = source
        self.offset = offset
        self.expected = tuple(sorted(expected))
        text = f"{message} at offset {offset}"
        if self.expected:
            text += ", expected " + " or ".join(self.expected)
        super().__init__(text)


class EvalError(ArithmeticError):
    """Domain error during evaluation; carries the offending subexpression."""

    def __init__(self, message, subexpr):
        self.subexpr = subexpr
        super().__init__(f"{message} in '{to_string(subexpr)}'")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Expr:
    """A node; nodes of one type with equal fields (``pos``, the offset in
    the source text, aside) are equal and hash alike."""

    __slots__ = ("pos",)

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(other, f) == getattr(self, f) for f in self.__slots__)

    def __hash__(self):
        return hash((type(self),) + tuple(getattr(self, f)
                                          for f in self.__slots__))

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"{type(self).__name__}({to_string(self)!r})"


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value, pos=-1):
        self.value = float(value)
        self.pos = pos


class Var(Expr):
    """The time variable ``t`` or a state component ``x1 .. xk``."""

    __slots__ = ("name",)

    def __init__(self, name, pos=-1):
        self.name = name
        self.pos = pos

    @property
    def index(self):
        return None if self.name == "t" else int(self.name[1:]) - 1


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name, pos=-1):
        self.name = name
        self.pos = pos


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child, pos=-1):
        self.child = child
        self.pos = pos


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right, pos=-1):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg, pos=-1):
        self.fn = fn
        self.arg = arg
        self.pos = pos


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<NUM>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<OP>[-+*/^()])
  | (?P<WS>\s+)
""", re.VERBOSE)


def _tokenize(src):
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", src, i)
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(("END", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind == "OP" and text == op:
            return self.advance()
        raise ParseError(f"unexpected token {text or 'end of input'!r}",
                         self.src, pos, expected=(repr(op),))

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {text!r}", self.src, pos,
                             expected=("operator", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "OP" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.term(), pos)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "OP" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.unary(), pos)
            else:
                return e

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "OP" and text == "-":
            self.advance()
            return Neg(self.unary(), pos)
        return self.power()

    def power(self):
        e = self.atom()
        kind, text, pos = self.peek()
        if kind == "OP" and text == "^":
            self.advance()
            return BinOp("^", e, self.unary(), pos)
        return e

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "NUM":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} overflows a float", self.src,
                                 pos)
            return Num(value, pos)
        if kind == "IDENT":
            k2, t2, _ = self.peek()
            if k2 == "OP" and t2 == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", self.src, pos,
                                     expected=FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, pos)
            if text == "t" or _VAR_RE.match(text):
                return Var(text, pos)
            return Param(text, pos)
        if kind == "OP" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text or 'end of input'!r}",
                         self.src, pos, expected=("number", "name", "'('", "'-'"))


def parse(src):
    """Parse an expression string into an AST."""
    if not src or not src.strip():
        raise ParseError("empty expression", src, 0, expected=("expression",))
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e):
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e):
    """Render the AST back to parseable source."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Neg):
        c = to_string(e.child)
        if _prec(e.child) < _PREC["neg"]:
            c = f"({c})"
        return f"-{c}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, BinOp):
        lp, rp = _prec(e.left), _prec(e.right)
        p = _PREC[e.op]
        left = to_string(e.left)
        right = to_string(e.right)
        if e.op == "^":
            # right-associative: parenthesize a left operand of equal precedence
            if lp <= p:
                left = f"({left})"
            if rp < p:
                right = f"({right})"
        else:
            if lp < p:
                left = f"({left})"
            if rp < p or (rp == p and e.op in ("-", "/")):
                right = f"({right})"
        sep = f" {e.op} " if e.op in "+-" else e.op
        return f"{left}{sep}{right}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _is_bad(x, pred):
    return bool(np.any(pred(np.asarray(x))))


def evaluate(e, t, x, params=None):
    """Checked evaluation; ``t`` and the entries of ``x`` may be arrays.

    Raises EvalError on domain violations (log of a non-positive value,
    division by zero, fractional powers of negatives), naming the
    subexpression.
    """
    params = params or {}

    def ev(e):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Var):
            if e.name == "t":
                return t
            return x[e.index]
        if isinstance(e, Param):
            if e.name not in params:
                raise EvalError(f"unbound parameter {e.name!r}", e)
            return params[e.name]
        if isinstance(e, Neg):
            return -ev(e.child)
        if isinstance(e, Call):
            a = ev(e.arg)
            if e.fn == "log":
                if _is_bad(a, lambda v: v <= 0):
                    raise EvalError("log of a non-positive value", e)
                return np.log(a)
            if e.fn == "sqrt":
                if _is_bad(a, lambda v: v < 0):
                    raise EvalError("sqrt of a negative value", e)
                return np.sqrt(a)
            if e.fn == "abs":
                return np.abs(a)
            if e.fn == "sign":
                return np.sign(a)
            return getattr(np, e.fn)(a)
        if isinstance(e, BinOp):
            a, b = ev(e.left), ev(e.right)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                if _is_bad(b, lambda v: v == 0):
                    raise EvalError("division by zero", e)
                return a / b
            # power
            if _is_bad(a, lambda v: v < 0):
                bb = np.asarray(b)
                if np.any(bb != np.round(bb)):
                    raise EvalError("fractional power of a negative value", e)
            if _is_bad(a, lambda v: v == 0) and _is_bad(b, lambda v: v < 0):
                raise EvalError("zero to a negative power", e)
            return np.power(a, b)
        raise TypeError(f"not an expression: {e!r}")

    return ev(e)


def free_names(e):
    """Set of variable and parameter names occurring in the expression."""
    out = set()

    def walk(e):
        if isinstance(e, (Var, Param)):
            out.add(e.name)
        elif isinstance(e, Neg):
            walk(e.child)
        elif isinstance(e, Call):
            walk(e.arg)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Differentiation with light simplification
# ---------------------------------------------------------------------------

def _num(e, v):
    return isinstance(e, Num) and e.value == v


def _add(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if _num(a, 0):
        return b
    if _num(b, 0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _num(b, 0):
        return a
    if _num(a, 0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if _num(a, 0) or _num(b, 0):
        return Num(0.0)
    if _num(a, 1):
        return b
    if _num(b, 1):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _num(a, 0):
        return Num(0.0)
    if _num(b, 1):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(a, b):
    if _num(b, 1):
        return a
    if _num(b, 0):
        return Num(1.0)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value ** b.value)
    return BinOp("^", a, b)


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def differentiate(e, var):
    """Exact derivative of ``e`` with respect to the named variable.

    ``var`` may be ``"t"``, a state name ``"xi"`` or a parameter name.
    """
    if isinstance(var, (Var, Param)):
        var = var.name

    def d(e):
        if isinstance(e, Num):
            return Num(0.0)
        if isinstance(e, (Var, Param)):
            return Num(1.0) if e.name == var else Num(0.0)
        if isinstance(e, Neg):
            return _neg(d(e.child))
        if isinstance(e, BinOp):
            a, b = e.left, e.right
            da, db = d(a), d(b)
            if e.op == "+":
                return _add(da, db)
            if e.op == "-":
                return _sub(da, db)
            if e.op == "*":
                return _add(_mul(da, b), _mul(a, db))
            if e.op == "/":
                return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Num(2.0)))
            # power
            if isinstance(b, Num):
                return _mul(_mul(b, _pow(a, Num(b.value - 1.0))), da)
            # u^v = exp(v log u)
            term1 = _mul(db, Call("log", a))
            term2 = _div(_mul(b, da), a)
            return _mul(_pow(a, b), _add(term1, term2))
        if isinstance(e, Call):
            u, du = e.arg, d(e.arg)
            if e.fn == "sin":
                return _mul(Call("cos", u), du)
            if e.fn == "cos":
                return _neg(_mul(Call("sin", u), du))
            if e.fn == "tan":
                return _div(du, _pow(Call("cos", u), Num(2.0)))
            if e.fn == "exp":
                return _mul(Call("exp", u), du)
            if e.fn == "log":
                return _div(du, u)
            if e.fn == "sqrt":
                return _div(du, _mul(Num(2.0), Call("sqrt", u)))
            if e.fn == "abs":
                # derivative 0 at u = 0 (sign(0) = 0)
                return _mul(Call("sign", u), du)
            if e.fn == "sign":
                return Num(0.0)
        raise TypeError(f"not an expression: {e!r}")

    return d(e)


# ---------------------------------------------------------------------------
# Compilation to fast callables
# ---------------------------------------------------------------------------

def _scalar_sign(u):
    return 0.0 if u == 0 else math.copysign(1.0, u)


def _scalar_pow(a, b):
    """a^b as numpy computes it: nan where no real power exists."""
    try:
        return math.pow(a, b)
    except ValueError:
        return math.nan


_SCALAR_ENV = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "abs": abs, "sign": _scalar_sign,
    "pow": _scalar_pow,
}
_ARRAY_ENV = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "pow": np.power,
}


def _float_code(v):
    """Code of the float ``v``; the repr of inf or nan names no value."""
    return repr(v) if math.isfinite(v) else f"float({repr(v)!r})"


def _codegen(e, params, sub=None):
    """Code of ``e`` with parameter values folded in; ``sub(child)`` gives
    the code of each child (by default its full code)."""
    sub = sub or (lambda c: _codegen(c, params))
    if isinstance(e, Num):
        return _float_code(e.value)
    if isinstance(e, Var):
        return "t" if e.name == "t" else f"x{e.index}"
    if isinstance(e, Param):
        if e.name not in params:
            raise EvalError(f"unbound parameter {e.name!r}", e)
        return _float_code(float(params[e.name]))
    if isinstance(e, Neg):
        return f"(-{sub(e.child)})"
    if isinstance(e, Call):
        return f"_{e.fn}({sub(e.arg)})"
    if isinstance(e, BinOp):
        a, b = sub(e.left), sub(e.right)
        integral = isinstance(e.right, Num) and e.right.value.is_integer()
        if e.op == "^" and not integral:  # ** could return a complex
            return f"_pow({a}, {b})"
        op = "**" if e.op == "^" else e.op
        return f"({a}{op}{b})"
    raise TypeError(f"not an expression: {e!r}")


def _children(e):
    if isinstance(e, Neg):
        return (e.child,)
    if isinstance(e, Call):
        return (e.arg,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    return ()


def _shared_code(roots):
    """Code of the ``(expression, params)`` pairs ``roots`` (an expression
    may be a nested list) that computes each repeated subtree once.

    Every non-leaf subtree occurring more than once across the roots, not
    counting the insides of its own repeats, becomes a temporary ``cN``.
    Subtrees are keyed by their code, so equal trees under different
    parameter values stay apart.  Nothing is rewritten, so each operation
    keeps its operands and the values keep their bits.  Returns
    ``(lines, codes)``: the assignments of the state components the code
    reads to locals ``x0, x1, ...`` and of the temporaries in first-use
    post-order, and the code of each root.
    """
    seen, names, lines, used, full = {}, {}, [], set(), {}

    def code_of(e, params):  # full code, generated once per node
        k = id(e), id(params)  # every node and dict lives until we return
        if k not in full:
            full[k] = _codegen(e, params, lambda c: code_of(c, params))
        return full[k]

    def count(e, params):
        if isinstance(e, (list, tuple)):
            for c in e:
                count(c, params)
        elif _children(e):
            key = code_of(e, params)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] == 1:
                for c in _children(e):
                    count(c, params)

    def emit(e, params):
        if isinstance(e, (list, tuple)):
            return "[" + ", ".join(emit(c, params) for c in e) + "]"
        if not _children(e):
            if isinstance(e, Var) and e.name != "t":
                used.add(e.index)
            return code_of(e, params)
        key = code_of(e, params)
        if key not in names:
            code = _codegen(e, params, lambda c: emit(c, params))
            if seen[key] == 1:
                return code
            names[key] = f"c{len(names)}"
            lines.append(f"{names[key]} = {code}")
        return names[key]

    for e, params in roots:
        count(e, params)
    codes = [emit(e, params) for e, params in roots]
    # one index per component: unpacking would iterate a numpy array
    return [f"x{i} = x[{i}]" for i in sorted(used)] + lines, codes


def compile_source(src, arrays=False):
    """Execute generated source that defines ``f`` and return ``f``, with
    the functions bound to ``math`` or, for ``arrays=True``, to numpy."""
    ns = {f"_{k}": v for k, v in (_ARRAY_ENV if arrays else _SCALAR_ENV).items()}
    exec(src, ns)  # noqa: S102 - controlled codegen
    return ns["f"]


def compile_expr(e, params=None, arrays=False):
    """Compile to a callable ``f(t, x)``; parameter values are folded in.

    With ``arrays=True`` the callable accepts numpy arrays for ``t`` and the
    rows of ``x`` and broadcasts; the scalar flavour uses ``math`` for speed.
    The compiled path trades the checked errors of :func:`evaluate` for
    speed; domain violations surface as ``ValueError``/non-finite values.
    A (nested) list of expressions compiles to lists of their values.  The
    components of ``x`` it reads are bound to locals once, and a subtree
    that occurs more than once is computed once (see :func:`_shared_code`),
    with the same operations on the same operands as written out in full.
    """
    lines, (code,) = _shared_code([(e, params or {})])
    return compile_source(
        "def f(t, x):\n" + "".join(f"    {s}\n" for s in lines)
        + f"    return {code}\n", arrays)


class VectorExpr:
    """A k-vector of expressions with bound parameter values."""

    def __init__(self, components, k, params=None):
        self.components = [parse(c) if isinstance(c, str) else c for c in components]
        self.k = int(k)
        self.params = dict(params or {})
        self._validate()

    def _validate(self):
        for c in self.components:
            for name in free_names(c):
                if name == "t":
                    continue
                if _VAR_RE.match(name):
                    idx = int(name[1:])
                    if idx > self.k:
                        raise ValueError(
                            f"variable {name} exceeds system dimension k={self.k}")
                elif name not in self.params:
                    raise ValueError(f"unbound parameter {name!r}")

    def __len__(self):
        return len(self.components)

    def uses_time(self):
        return any("t" in free_names(c) for c in self.components)

    def evaluate(self, t, x):
        return np.array([evaluate(c, t, x, self.params) for c in self.components])

    def jacobian_exprs(self):
        """k x k matrix of exact partial derivatives with respect to x1..xk."""
        return [[differentiate(c, f"x{j + 1}") for j in range(self.k)]
                for c in self.components]

    def __str__(self):
        return "(" + ", ".join(to_string(c) for c in self.components) + ")"
