"""Two-jet evaluation of parametric surfaces and graphs.

The module owns a small expression language for user-supplied graph functions
f(u, v) and evaluates it either as plain numbers or as second-order forward
jets (value, gradient and Hessian carried through every node as six plain
scalars), so graph charts have exact derivatives.  Parametric charts built
from closed-form components reuse the same jet engine; position-only
callables fall back to central finite differences.

Grammar (stable public contract)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

Identifiers: variables ``u``, ``v``; constants ``pi``, ``e``; functions
``sqrt sinh cosh tanh sin cos exp log abs``.  ``^`` with a non-integer
exponent requires a positive base.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import ambient
from .errors import (DomainError, EvaluationError, HeightViolation, NonImmersed,
                     OutsideDomain, ParseError)

FUNCTIONS = ("sqrt", "sinh", "cosh", "tanh", "sin", "cos", "exp", "log", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("u", "v")

GRAM_DET_TOL = 1e-12


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, (Num, Var, Const, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Bin):
        if node.op == "^":
            return _PREC_POW
        return _PREC_MUL if node.op in "*/" else _PREC_ADD
    raise TypeError(f"not an expression node: {node!r}")


def unparse(node) -> str:
    """Render a tree back to text; reparsing gives a structurally equal tree."""
    if isinstance(node, Num):
        return repr(node.value) if node.value >= 0 else f"({node.value!r})"
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({unparse(node.arg)})"
    if isinstance(node, Neg):
        inner = unparse(node.arg)
        if _prec(node.arg) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        lhs, rhs = unparse(node.left), unparse(node.right)
        if node.op == "^":
            if _prec(node.left) < _PREC_ATOM:
                lhs = f"({lhs})"
            if _prec(node.right) < _PREC_UNARY:
                rhs = f"({rhs})"
        elif node.op in "*/":
            if _prec(node.left) < _PREC_MUL:
                lhs = f"({lhs})"
            # both are left-associative: an equal-precedence right child needs parens
            if _prec(node.right) <= _PREC_MUL:
                rhs = f"({rhs})"
        else:
            if _prec(node.left) < _PREC_ADD:
                lhs = f"({lhs})"
            if _prec(node.right) <= _PREC_ADD:
                rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._advance()

    def _advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        self.tok_start = i
        if i >= n:
            self.kind, self.value, self.pos = "end", None, i
            return
        ch = text[i]
        if ch in "+-*/^()":
            self.kind, self.value, self.pos = ch, ch, i + 1
            return
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", i, {"number"})
            self.kind, self.value, self.pos = "number", value, j
            return
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.kind, self.value, self.pos = "ident", text[i:j], j
            return
        raise ParseError(f"unexpected character {ch!r}", i,
                         {"number", "identifier", "(", "-"})

    def next(self):
        self._advance()


class _Parser:
    def __init__(self, text, constants):
        self.toks = _Tokenizer(text)
        self.constants = constants

    def parse(self):
        node = self.expr()
        if self.toks.kind != "end":
            raise ParseError(f"trailing input {self.toks.value!r}",
                             self.toks.tok_start, {"end of input", "operator"})
        return node

    def expr(self):
        node = self.term()
        while self.toks.kind in "+-":
            op = self.toks.kind
            self.toks.next()
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.toks.kind in "*/":
            op = self.toks.kind
            self.toks.next()
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.toks.kind == "-":
            self.toks.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.toks.kind == "^":
            self.toks.next()
            return Bin("^", base, self.unary())
        return base

    def atom(self):
        t = self.toks
        if t.kind == "number":
            node = Num(t.value)
            t.next()
            return node
        if t.kind == "(":
            t.next()
            node = self.expr()
            if t.kind != ")":
                raise ParseError("unbalanced parenthesis", t.tok_start, {")"})
            t.next()
            return node
        if t.kind == "ident":
            name, start = t.value, t.tok_start
            t.next()
            if t.kind == "(":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", start,
                                     set(FUNCTIONS))
                t.next()
                arg = self.expr()
                if t.kind != ")":
                    raise ParseError("unbalanced parenthesis", t.tok_start, {")"})
                t.next()
                return Call(name, arg)
            if name in VARIABLES:
                return Var(name)
            if name in self.constants:
                return Const(name)
            raise ParseError(f"unknown identifier {name!r}", start,
                             set(VARIABLES) | set(self.constants) | set(FUNCTIONS))
        raise ParseError(f"unexpected token {t.value!r}", t.tok_start,
                         {"number", "identifier", "(", "-"})


@dataclass(frozen=True)
class GraphExpr:
    """Parsed expression over the variables u and v."""

    ast: object
    constants: tuple = ()     # sorted (name, value) pairs of the extra constants

    def __str__(self):
        return unparse(self.ast)

    def __call__(self, u, v):
        return evaluate(self.ast, u, v, dict(self.constants))

    def jet(self, u, v):
        """Value, gradient (2,), Hessian (2, 2) at (u, v), exact to rounding."""
        j = _jet_eval(self.ast, u, v, dict(self.constants))
        return (j.val, np.array([j.gu, j.gv]),
                np.array([[j.huu, j.huv], [j.huv, j.hvv]]))

    def derivative(self, var: str) -> "GraphExpr":
        """Symbolic partial derivative (unsimplified tree)."""
        return GraphExpr(derivative(self.ast, var), self.constants)


def parse_graph_expr(text: str, extra_constants=()) -> GraphExpr:
    """Parse expression text; raises ParseError with offset and expected set.

    ``extra_constants`` maps additional identifier names to values (the CLI
    uses it to allow the imaginary unit in complex field expressions).
    """
    extra = dict(extra_constants)
    tree = _Parser(text, {**CONSTANTS, **extra}).parse()
    return GraphExpr(tree, tuple(sorted(extra.items())))


def contains_var(node, name: str) -> bool:
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Neg):
        return contains_var(node.arg, name)
    if isinstance(node, Bin):
        return contains_var(node.left, name) or contains_var(node.right, name)
    if isinstance(node, Call):
        return contains_var(node.arg, name)
    return False


_CHAIN_DERIVATIVES = {
    # f -> expression tree of f'(x) with x the placeholder argument
    "sqrt": lambda x: Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", x))),
    "sinh": lambda x: Call("cosh", x),
    "cosh": lambda x: Call("sinh", x),
    "tanh": lambda x: Bin("-", Num(1.0), Bin("^", Call("tanh", x), Num(2.0))),
    "sin": lambda x: Call("cos", x),
    "cos": lambda x: Neg(Call("sin", x)),
    "exp": lambda x: Call("exp", x),
    "log": lambda x: Bin("/", Num(1.0), x),
    "abs": lambda x: Bin("/", Call("abs", x), x),
}


def derivative(node, var: str):
    """Symbolic derivative of a tree with respect to 'u' or 'v' (unsimplified)."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(derivative(node.arg, var))
    if isinstance(node, Call):
        return Bin("*", _CHAIN_DERIVATIVES[node.fn](node.arg),
                   derivative(node.arg, var))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        da, db = derivative(a, var), derivative(b, var)
        if node.op in "+-":
            return Bin(node.op, da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if node.op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, Num(2.0)))
        # power
        if not contains_var(b, "u") and not contains_var(b, "v"):
            down = Bin("-", b, Num(1.0))
            return Bin("*", Bin("*", b, Bin("^", a, down)), da)
        # general a^b = exp(b log a)
        inner = Bin("+", Bin("*", db, Call("log", a)),
                    Bin("*", b, Bin("/", da, a)))
        return Bin("*", node, inner)
    raise TypeError(f"not an expression node: {node!r}")


# --------------------------------------------------------------------------
# Plain evaluation (real or complex)
# --------------------------------------------------------------------------

_REAL_FUNCS = {
    "sqrt": math.sqrt, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
    "abs": abs,
}
_COMPLEX_FUNCS = {
    "sqrt": cmath.sqrt, "sinh": cmath.sinh, "cosh": cmath.cosh,
    "tanh": cmath.tanh, "sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp,
    "log": cmath.log, "abs": abs,
}

_EXTRA_CONSTANT_VALUES = {"i": 1j}


def _constant(name, constants):
    if name in CONSTANTS:
        return CONSTANTS[name]
    if constants and name in constants:
        return constants[name]
    return _EXTRA_CONSTANT_VALUES[name]


def evaluate(node, u, v, constants=None):
    """Evaluate a tree at (u, v); complex arguments switch to complex arithmetic."""
    is_complex = isinstance(u, complex) or isinstance(v, complex)

    def rec(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            return u if n.name == "u" else v
        if isinstance(n, Const):
            return _constant(n.name, constants)
        if isinstance(n, Neg):
            return -rec(n.arg)
        if isinstance(n, Call):
            x = rec(n.arg)
            if isinstance(x, complex) or is_complex:
                return _COMPLEX_FUNCS[n.fn](x)
            if n.fn == "sqrt" and x < 0:
                raise DomainError("sqrt of negative value")
            if n.fn == "log" and x <= 0:
                raise DomainError("log of nonpositive value")
            return _REAL_FUNCS[n.fn](x)
        if isinstance(n, Bin):
            a, b = rec(n.left), rec(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            if n.op == "/":
                if b == 0:
                    raise DomainError("division by zero")
                return a / b
            # power
            if isinstance(a, complex) or isinstance(b, complex):
                return a ** b
            if b != round(b) and a <= 0:
                raise DomainError("non-integer power of nonpositive base")
            try:
                return a ** b
            except ZeroDivisionError:
                raise DomainError("zero base with negative exponent") from None
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if isinstance(out, complex):
        if not (math.isfinite(out.real) and math.isfinite(out.imag)):
            raise EvaluationError("expression produced a non-finite value")
    elif not math.isfinite(out):
        raise EvaluationError("expression produced a non-finite value")
    return out


# --------------------------------------------------------------------------
# Second-order forward jets
# --------------------------------------------------------------------------

class _Jet:
    """Value, gradient and Hessian with respect to (u, v), propagated forward.

    The six Taylor coefficients are plain scalars: the value ``val``, the
    gradient ``gu``, ``gv`` and the Hessian ``huu``, ``huv``, ``hvv``
    (Griewank and Walther, Evaluating Derivatives, ch. 13).  A float operand
    takes part as a constant without being lifted into a jet.
    """

    __slots__ = ("val", "gu", "gv", "huu", "huv", "hvv")

    def __init__(self, val, gu=0.0, gv=0.0, huu=0.0, huv=0.0, hvv=0.0):
        self.val = val
        self.gu = gu
        self.gv = gv
        self.huu = huu
        self.huv = huv
        self.hvv = hvv

    def __float__(self):
        return float(self.val)

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val + o.val, self.gu + o.gu, self.gv + o.gv,
                        self.huu + o.huu, self.huv + o.huv, self.hvv + o.hvv)
        return _Jet(self.val + o, self.gu, self.gv, self.huu, self.huv, self.hvv)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.val - o.val, self.gu - o.gu, self.gv - o.gv,
                        self.huu - o.huu, self.huv - o.huv, self.hvv - o.hvv)
        return _Jet(self.val - o, self.gu, self.gv, self.huu, self.huv, self.hvv)

    def __rsub__(self, o):
        return _Jet(o - self.val, -self.gu, -self.gv, -self.huu, -self.huv, -self.hvv)

    def __neg__(self):
        return _Jet(-self.val, -self.gu, -self.gv, -self.huu, -self.huv, -self.hvv)

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.val * o, self.gu * o, self.gv * o,
                        self.huu * o, self.huv * o, self.hvv * o)
        a, b = self.val, o.val
        au, av, bu, bv = self.gu, self.gv, o.gu, o.gv
        cuu, cvv = au * bu, av * bv
        return _Jet(a * b, au * b + bu * a, av * b + bv * a,
                    self.huu * b + o.huu * a + cuu + cuu,
                    self.huv * b + o.huv * a + au * bv + av * bu,
                    self.hvv * b + o.hvv * a + cvv + cvv)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Jet):
            if o == 0.0:
                raise DomainError("division by zero")
            return self * (1.0 / o)
        if o.val == 0.0:
            raise DomainError("division by zero")
        return self * o._reciprocal()

    def __rtruediv__(self, o):
        if self.val == 0.0:
            raise DomainError("division by zero")
        return self._reciprocal() * o

    def _reciprocal(self):
        inv = 1.0 / self.val
        inv3 = inv**3
        gu, gv = self.gu, self.gv
        return _Jet(inv, -gu * inv * inv, -gv * inv * inv,
                    -self.huu * inv * inv + 2.0 * (gu * gu) * inv3,
                    -self.huv * inv * inv + 2.0 * (gu * gv) * inv3,
                    -self.hvv * inv * inv + 2.0 * (gv * gv) * inv3)

    def chain(self, f0, f1, f2):
        """Compose with a scalar function given value/first/second derivative."""
        gu, gv = self.gu, self.gv
        return _Jet(f0, f1 * gu, f1 * gv,
                    f1 * self.huu + f2 * (gu * gu),
                    f1 * self.huv + f2 * (gu * gv),
                    f1 * self.hvv + f2 * (gv * gv))

    def pow(self, o):
        if isinstance(o, _Jet):
            if o.gu or o.gv or o.huu or o.huv or o.hvv:
                if self.val <= 0.0:
                    raise DomainError("variable power of nonpositive base")
                return (o * self._log()).exp()
            o = o.val
        v = self.val
        if o == round(o):
            n = int(round(o))
            if n == 0:
                return _Jet(1.0)
            if v == 0.0 and n < 0:
                raise DomainError("zero base with negative exponent")
            f0 = v ** n
            f1 = n * v ** (n - 1)
            f2 = n * (n - 1) * (v ** (n - 2) if n != 1 else 0.0)
            return self.chain(f0, f1, f2)
        if v <= 0.0:
            raise DomainError("non-integer power of nonpositive base")
        f0 = v ** o
        return self.chain(f0, o * f0 / v, o * (o - 1.0) * f0 / (v * v))

    def _log(self):
        v = self.val
        if v <= 0.0:
            raise DomainError("log of nonpositive value")
        return self.chain(math.log(v), 1.0 / v, -1.0 / (v * v))

    def exp(self):
        e = math.exp(self.val)
        return self.chain(e, e, e)


def _jet_call(fn, x: _Jet) -> _Jet:
    v = x.val
    if fn == "sqrt":
        if v <= 0.0:
            raise DomainError("sqrt needs a positive argument for derivatives")
        r = math.sqrt(v)
        return x.chain(r, 0.5 / r, -0.25 / (r * v))
    if fn == "sinh":
        return x.chain(math.sinh(v), math.cosh(v), math.sinh(v))
    if fn == "cosh":
        return x.chain(math.cosh(v), math.sinh(v), math.cosh(v))
    if fn == "tanh":
        t = math.tanh(v)
        s = 1.0 - t * t
        return x.chain(t, s, -2.0 * t * s)
    if fn == "sin":
        return x.chain(math.sin(v), math.cos(v), -math.sin(v))
    if fn == "cos":
        return x.chain(math.cos(v), -math.sin(v), -math.cos(v))
    if fn == "exp":
        return x.exp()
    if fn == "log":
        return x._log()
    if fn == "abs":
        if v == 0.0:
            raise DomainError("abs is not differentiable at zero")
        s = math.copysign(1.0, v)
        return x.chain(abs(v), s, 0.0)
    raise TypeError(f"unknown function {fn!r}")


def _jet_eval(node, u, v, constants=None) -> _Jet:
    """Jet of a tree at (u, v).

    Constant subtrees stay floats and enter the jet rules as plain operands;
    a float is lifted into a jet only where a rule needs one of its own: the
    base of a power, the argument of a function, and an operation between
    two floats (so their domain errors are the jet rules' errors).
    """
    ju, jv = _Jet(float(u), 1.0), _Jet(float(v), 0.0, 1.0)

    def rec(n):
        kind = type(n)
        if kind is Var:
            return ju if n.name == "u" else jv
        if kind is Num:
            return float(n.value)
        if kind is Bin:
            a, b, op = rec(n.left), rec(n.right), n.op
            if type(a) is not _Jet and (op == "^" or type(b) is not _Jet):
                a = _Jet(a)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                return a / b
            return a.pow(b)
        if kind is Call:
            x = rec(n.arg)
            return _jet_call(n.fn, x if type(x) is _Jet else _Jet(x))
        if kind is Neg:
            return -rec(n.arg)
        if kind is Const:
            value = _constant(n.name, constants)
            if isinstance(value, complex):
                raise DomainError(f"constant {n.name!r} is complex; jets are real")
            return float(value)
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if type(out) is not _Jet:
        out = _Jet(out)
    if not all(map(math.isfinite, (out.val, out.gu, out.gv,
                                   out.huu, out.huv, out.hvv))):
        raise EvaluationError("expression jet produced a non-finite value")
    return out


# --------------------------------------------------------------------------
# Charts and jets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet2:
    """Position with first and second parameter derivatives at one point.

    ``x`` has the ambient dimension m; ``du`` is (m, k) and ``duu`` (m, k, k)
    for k parameters (k = 2 for surface charts).
    """

    x: np.ndarray
    du: np.ndarray
    duu: np.ndarray

    @property
    def height(self):
        return float(self.x[-1])


def scalar_jet(node, u, v) -> "_Jet":
    """Second-order jet of an expression tree; supports plain arithmetic, so
    closed-form pipelines can be differentiated by running them on jets."""
    return _jet_eval(node, u, v)


def first_order_jet(val, grad) -> "_Jet":
    """Jet with a zero Hessian: plain arithmetic on it gives exact first derivatives."""
    return _Jet(float(val), float(grad[0]), float(grad[1]))


def jet_sqrt(x):
    """Square root usable on floats and jets alike."""
    if isinstance(x, _Jet):
        return _jet_call("sqrt", x)
    return math.sqrt(x)


def jet_arrays(jets):
    """(x, du, duu) arrays of a list of component jets, built once."""
    return (np.array([j.val for j in jets]),
            np.array([(j.gu, j.gv) for j in jets]),
            np.array([((j.huu, j.huv), (j.huv, j.hvv)) for j in jets]))


class GraphEvaluator:
    """Graph (u, v, f(u, v)) with exact jets from the expression engine."""

    kind = "graph"

    def __init__(self, expr: GraphExpr):
        self.expr = expr

    @property
    def component_asts(self):
        return (Var("u"), Var("v"), self.expr.ast)

    def jet(self, u, v):
        j = _jet_eval(self.expr.ast, u, v, dict(self.expr.constants))
        return (np.array([u, v, j.val]),
                np.array([(1.0, 0.0), (0.0, 1.0), (j.gu, j.gv)]),
                np.array([((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)),
                          ((j.huu, j.huv), (j.huv, j.hvv))]))


class ClosedFormEvaluator:
    """Parametric chart with exact jets.

    Built either from per-component expressions or from a callable returning
    (x, du, duu) directly.
    """

    kind = "closed_form"

    def __init__(self, components=None, jet_fn=None):
        if (components is None) == (jet_fn is None):
            raise ValueError("give either components or jet_fn")
        self.components = tuple(components) if components is not None else None
        self._jet_fn = jet_fn

    @property
    def component_asts(self):
        if self.components is None:
            return None
        return tuple(c.ast for c in self.components)

    def jet(self, u, v):
        if self._jet_fn is not None:
            return self._jet_fn(u, v)
        return jet_arrays([_jet_eval(c.ast, u, v, dict(c.constants))
                           for c in self.components])


class NumericEvaluator:
    """Position-only callable; jets by central finite differences.

    First partials use step 1e-5 * max(1, |u|, |v|); second partials a 9-point
    stencil with step 1e-3 * max(1, |u|, |v|).
    """

    kind = "numeric"
    first_step = 1e-5
    second_step = 1e-3

    def __init__(self, position_fn):
        self.position = position_fn

    def jet(self, u, v):
        f = self.position
        scale = max(1.0, abs(u), abs(v))
        h1 = self.first_step * scale
        h2 = self.second_step * scale
        x = np.asarray(f(u, v), dtype=float)
        du = np.stack([(np.asarray(f(u + h1, v)) - np.asarray(f(u - h1, v))) / (2 * h1),
                       (np.asarray(f(u, v + h1)) - np.asarray(f(u, v - h1))) / (2 * h1)],
                      axis=1)
        m = x.shape[0]
        duu = np.empty((m, 2, 2))
        fpp = np.asarray(f(u + h2, v))
        fmm = np.asarray(f(u - h2, v))
        duu[:, 0, 0] = (fpp - 2 * x + fmm) / h2**2
        gpp = np.asarray(f(u, v + h2))
        gmm = np.asarray(f(u, v - h2))
        duu[:, 1, 1] = (gpp - 2 * x + gmm) / h2**2
        cross = (np.asarray(f(u + h2, v + h2)) - np.asarray(f(u + h2, v - h2))
                 - np.asarray(f(u - h2, v + h2)) + np.asarray(f(u - h2, v - h2))) / (4 * h2**2)
        duu[:, 0, 1] = cross
        duu[:, 1, 0] = cross
        return x, du, duu

    def boundary_margin(self, u, v):
        return 2.0 * self.second_step * max(1.0, abs(u), abs(v))


@dataclass(frozen=True)
class SurfaceChart:
    """Parametric immersion over a rectangle, evaluable to a two-jet."""

    domain: tuple                 # (u0, u1, v0, v1)
    evaluator: object
    ambient: ambient.AmbientSpace
    # Normal orientation override: None for the default (last frame component
    # nonnegative), an int sign, a reference vector, or a callable (u, v) -> vector.
    orientation: object = None

    @property
    def kind(self):
        return self.evaluator.kind

    def orientation_at(self, p):
        """The orientation override at parameter p, callables resolved."""
        if callable(self.orientation):
            return self.orientation(float(p[0]), float(p[1]))
        return self.orientation

    def contains(self, u, v, margin=0.0):
        u0, u1, v0, v1 = self.domain
        return (u0 + margin < u < u1 - margin) and (v0 + margin < v < v1 - margin)

    def interior_points(self, count, rng, margin_frac=0.05):
        """Uniform random interior points, keeping a fractional margin."""
        u0, u1, v0, v1 = self.domain
        mu, mv = margin_frac * (u1 - u0), margin_frac * (v1 - v0)
        us = rng.uniform(u0 + mu, u1 - mu, count)
        vs = rng.uniform(v0 + mv, v1 - mv, count)
        return np.column_stack([us, vs])


def jet2_eval(chart: SurfaceChart, p) -> Jet2:
    """Evaluate the two-jet of a chart at an interior parameter point.

    Raises OutsideDomain / HeightViolation / NonImmersed per the chart
    contract; the Gram determinant is taken with respect to the ambient
    metric.
    """
    u, v = float(p[0]), float(p[1])
    margin = 0.0
    if isinstance(chart.evaluator, NumericEvaluator):
        margin = chart.evaluator.boundary_margin(u, v)
    if not chart.contains(u, v, margin):
        raise OutsideDomain(f"({u}, {v}) is not interior to {chart.domain}")
    x, du, duu = chart.evaluator.jet(u, v)
    x = np.asarray(x, dtype=float)
    h = float(x[-1])
    if not (h > 0.0):
        raise HeightViolation(f"surface point {x} has nonpositive height")
    du = np.asarray(du, dtype=float)
    # Gram matrix of the induced metric sum_a eps_a du_a du_a / h^2, in closed form.
    e = f = g = 0.0
    for s, (xu, xv) in zip(chart.ambient.signature, du.tolist()):
        e += s * xu * xu
        f += s * xu * xv
        g += s * xv * xv
    h2 = h * h
    det = (e / h2) * (g / h2) - (f / h2) * (f / h2)
    if abs(det) < GRAM_DET_TOL:
        raise NonImmersed(f"Gram determinant {det:.3e} at ({u}, {v})")
    return Jet2(x, du, np.asarray(duu, dtype=float))
