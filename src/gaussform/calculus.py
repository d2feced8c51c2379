"""Two-jet evaluation of parametric surfaces and graphs.

The module owns a small expression language for user-supplied graph functions
f(u, v) and evaluates it as plain numbers or as forward jets carried through
every node as plain scalars: of order two (value, gradient, Hessian), so
graph charts have exact derivatives, and of order three, so the polar map,
which differentiates a chart, has them too.  Parametric charts built from
closed-form components reuse the same jet engine; position-only callables
fall back to central finite differences.

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


def parse_graph_expr(text: str, extra_constants=()) -> GraphExpr:
    """Parse expression text; raises ParseError with offset and expected set.

    ``extra_constants`` maps additional identifier names to values (the CLI
    uses it to allow the imaginary unit in complex field expressions).
    """
    extra = dict(extra_constants)
    tree = _Parser(text, {**CONSTANTS, **extra}).parse()
    return GraphExpr(tree, tuple(sorted(extra.items())))


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
# Forward jets of order two and three
# --------------------------------------------------------------------------

# Third derivatives f''' from v and (f, f', f''), which only order-three
# jets ask for.
_THIRD_DERIVATIVES = {
    "sqrt": lambda v, f0, f1, f2: -1.5 * f2 / v,
    "sinh": lambda v, f0, f1, f2: f1,
    "cosh": lambda v, f0, f1, f2: f1,
    "tanh": lambda v, f0, f1, f2: -2.0 * f1 * (f1 - 2.0 * f0 * f0),
    "sin": lambda v, f0, f1, f2: -f1,
    "cos": lambda v, f0, f1, f2: -f1,
    "exp": lambda v, f0, f1, f2: f0,
    "log": lambda v, f0, f1, f2: -2.0 * f2 / v,
    "abs": lambda v, f0, f1, f2: 0.0,
}


def _jet_call(fn, x):
    """A function of the grammar applied to a jet: f, f', f'' at x.val, with
    the domain errors, composed by x.chain; order three adds f'''."""
    v = x.val
    if fn == "sqrt":
        if v <= 0.0:
            raise DomainError("sqrt needs a positive argument for derivatives")
        r = math.sqrt(v)
        f0, f1, f2 = r, 0.5 / r, -0.25 / (r * v)
    elif fn == "sinh":
        f0, f1, f2 = math.sinh(v), math.cosh(v), math.sinh(v)
    elif fn == "cosh":
        f0, f1, f2 = math.cosh(v), math.sinh(v), math.cosh(v)
    elif fn == "tanh":
        t = math.tanh(v)
        s = 1.0 - t * t
        f0, f1, f2 = t, s, -2.0 * t * s
    elif fn == "sin":
        f0, f1, f2 = math.sin(v), math.cos(v), -math.sin(v)
    elif fn == "cos":
        f0, f1, f2 = math.cos(v), -math.sin(v), -math.cos(v)
    elif fn == "exp":
        f0 = f1 = f2 = math.exp(v)
    elif fn == "log":
        if v <= 0.0:
            raise DomainError("log of nonpositive value")
        f0, f1, f2 = math.log(v), 1.0 / v, -1.0 / (v * v)
    elif fn == "abs":
        if v == 0.0:
            raise DomainError("abs is not differentiable at zero")
        f0, f1, f2 = abs(v), math.copysign(1.0, v), 0.0
    else:
        raise TypeError(f"unknown function {fn!r}")
    if type(x) is _Jet:
        return x.chain(f0, f1, f2)
    return x.chain(f0, f1, f2, _THIRD_DERIVATIVES[fn](v, f0, f1, f2))


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

    def coefficients(self):
        return self.val, self.gu, self.gv, self.huu, self.huv, self.hvv

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
            if any(o.coefficients()[1:]):
                if self.val <= 0.0:
                    raise DomainError("variable power of nonpositive base")
                return _jet_call("exp", o * _jet_call("log", self))
            o = o.val
        v = self.val
        if o == round(o):
            n = int(round(o))
            if n == 0:
                return type(self)(1.0)
            if v == 0.0 and n < 0:
                raise DomainError("zero base with negative exponent")
            f0 = v ** n
            f1 = n * v ** (n - 1)
            f2 = n * (n - 1) * (v ** (n - 2) if n != 1 else 0.0)
        else:
            if v <= 0.0:
                raise DomainError("non-integer power of nonpositive base")
            f0 = v ** o
            f1, f2 = o * f0 / v, o * (o - 1.0) * f0 / (v * v)
        if type(self) is _Jet:
            return self.chain(f0, f1, f2)
        # f''' = (o - 2) f'' / v; v is 0 only for an integer o >= 1.
        return self.chain(f0, f1, f2, (o - 2.0) * f2 / v if v != 0.0
                          else (6.0 if o == 3 else 0.0))


class _Jet3(_Jet):
    """Order-three jet: the six coefficients of ``_Jet`` by its own rules, and
    the third derivatives ``tuuu``, ``tuuv``, ``tuvv``, ``tvvv``."""

    __slots__ = ("tuuu", "tuuv", "tuvv", "tvvv")

    def __init__(self, val, gu=0.0, gv=0.0, huu=0.0, huv=0.0, hvv=0.0,
                 tuuu=0.0, tuuv=0.0, tuvv=0.0, tvvv=0.0):
        _Jet.__init__(self, val, gu, gv, huu, huv, hvv)
        self.tuuu, self.tuuv, self.tuvv, self.tvvv = tuuu, tuuv, tuvv, tvvv

    def coefficients(self):
        return _Jet.coefficients(self) + (self.tuuu, self.tuuv, self.tuvv, self.tvvv)

    def __add__(self, o):
        low = _Jet.__add__(self, o).coefficients()
        if isinstance(o, _Jet3):
            return _Jet3(*low, self.tuuu + o.tuuu, self.tuuv + o.tuuv,
                         self.tuvv + o.tuvv, self.tvvv + o.tvvv)
        return _Jet3(*low, self.tuuu, self.tuuv, self.tuvv, self.tvvv)

    __radd__ = __add__

    def __neg__(self):
        return _Jet3(*[-c for c in self.coefficients()])

    # a - b and a + (-b) round identically.
    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        low = _Jet.__mul__(self, o).coefficients()
        if not isinstance(o, _Jet3):
            return _Jet3(*low, self.tuuu * o, self.tuuv * o, self.tuvv * o, self.tvvv * o)
        a, au, av, auu, auv, avv, auuu, auuv, auvv, avvv = self.coefficients()
        b, bu, bv, buu, buv, bvv, buuu, buuv, buvv, bvvv = o.coefficients()
        return _Jet3(*low, auuu * b + buuu * a + 3.0 * (auu * bu + au * buu),
                     auuv * b + buuv * a + auu * bv + av * buu + 2.0 * (auv * bu + au * buv),
                     auvv * b + buvv * a + avv * bu + au * bvv + 2.0 * (auv * bv + av * buv),
                     avvv * b + bvvv * a + 3.0 * (avv * bv + av * bvv))

    __rmul__ = __mul__

    def _reciprocal(self):
        low = _Jet._reciprocal(self).coefficients()
        inv = low[0]
        inv3 = inv**3
        return _Jet3(*low, *self._third(-inv * inv, 2.0 * inv3, -6.0 * inv3 * inv))

    def chain(self, f0, f1, f2, f3):
        return _Jet3(*_Jet.chain(self, f0, f1, f2).coefficients(), *self._third(f1, f2, f3))

    def _third(self, f1, f2, f3):
        """Third derivatives of f(self) given f', f'', f''' (Faa di Bruno)."""
        _, gu, gv, huu, huv, hvv, tuuu, tuuv, tuvv, tvvv = self.coefficients()
        return (f1 * tuuu + f2 * (3.0 * gu * huu) + f3 * (gu * gu * gu),
                f1 * tuuv + f2 * (huu * gv + 2.0 * gu * huv) + f3 * (gu * gu * gv),
                f1 * tuvv + f2 * (hvv * gu + 2.0 * gv * huv) + f3 * (gu * gv * gv),
                f1 * tvvv + f2 * (3.0 * gv * hvv) + f3 * (gv * gv * gv))


def _jet_eval(node, u, v, constants=None, jet=_Jet) -> _Jet:
    """Jet of a tree at (u, v), of the order of the jet class ``jet``.

    Constant subtrees stay floats and enter the jet rules as plain operands;
    a float is lifted into a jet only where a rule needs one of its own: the
    base of a power, the argument of a function, and an operation between
    two floats (so their domain errors are the jet rules' errors).
    """
    ju, jv = jet(float(u), 1.0), jet(float(v), 0.0, 1.0)

    def rec(n):
        kind = type(n)
        if kind is Var:
            return ju if n.name == "u" else jv
        if kind is Num:
            return float(n.value)
        if kind is Bin:
            a, b, op = rec(n.left), rec(n.right), n.op
            if type(a) is not jet and (op == "^" or type(b) is not jet):
                a = jet(a)
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
            return _jet_call(n.fn, x if type(x) is jet else jet(x))
        if kind is Neg:
            return -rec(n.arg)
        if kind is Const:
            value = _constant(n.name, constants)
            if isinstance(value, complex):
                raise DomainError(f"constant {n.name!r} is complex; jets are real")
            return float(value)
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if type(out) is not jet:
        out = jet(out)
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


def third_order_jet(node, u, v, constants=None) -> _Jet3:
    """Order-three jet of an expression tree at (u, v)."""
    j = _jet_eval(node, u, v, constants, _Jet3)
    if not all(map(math.isfinite, (j.tuuu, j.tuuv, j.tuvv, j.tvvv))):
        raise EvaluationError("expression jet produced a non-finite value")
    return j


def jet_partials(j: _Jet3):
    """Order-two jets of x, x_u and x_v from one order-three jet of x, for
    pipelines that need second derivatives of x_u and x_v (a normal, say)."""
    return (_Jet(j.val, j.gu, j.gv, j.huu, j.huv, j.hvv),
            _Jet(j.gu, j.huu, j.huv, j.tuuu, j.tuuv, j.tuvv),
            _Jet(j.gv, j.huv, j.hvv, j.tuuv, j.tuvv, j.tvvv))


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
