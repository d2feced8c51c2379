"""Two-jet evaluation of parametric surfaces and graphs.

The module owns a small expression language for user-supplied graph functions
f(u, v) and evaluates it as plain numbers or as forward jets carried through
every node as plain scalars: of order two (value, gradient, Hessian), so
graph charts have exact derivatives, and of order three, so the polar map,
which differentiates a chart, has them too; order-two jets also run on (N,)
float arrays, with the float path's bits.  Parametric charts built from
closed-form components reuse the same jet engine.

Grammar (stable public contract)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

Identifiers: variables ``u``, ``v``; constants ``pi``, ``e`` (and ``i``
where the parser is asked to admit the complex unit); functions
``sqrt sinh cosh tanh sin cos exp log abs``.  ``^`` with a non-integer
exponent requires a positive base.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import ambient
from .errors import (DomainError, EvaluationError, HeightViolation, NonImmersed,
                     OutsideDomain, ParseError)

FUNCTIONS = ("sqrt", "sinh", "cosh", "tanh", "sin", "cos", "exp", "log", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}
COMPLEX_UNIT = "i"      # a constant where parse_graph_expr admits it
VARIABLES = ("u", "v")

GRAM_DET_TOL = 1e-12
MAX_DEPTH = 200     # levels of the deepest tree; evaluation recurses once per level


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

    def __call__(self, u, v):
        return evaluate(self.ast, u, v)

    def jet(self, u, v):
        """Value, gradient (fu, fv) and Hessian ((fuu, fuv), (fuv, fvv)) at
        (u, v) as floats and tuples, exact to rounding."""
        j = _jet_eval(self.ast, u, v)
        return j.val, (j.gu, j.gv), ((j.huu, j.huv), (j.huv, j.hvv))


def parse_graph_expr(text: str, complex_unit=False) -> GraphExpr:
    """Parse expression text; raises ParseError with offset and expected set.

    ``complex_unit`` admits the imaginary unit ``i`` as a constant (the CLI
    allows it in complex field expressions; jets raise DomainError on it).
    """
    try:
        tree = _Parser(text, [*CONSTANTS, COMPLEX_UNIT] if complex_unit else CONSTANTS).parse()
    except RecursionError:      # nested parentheses, calls or signs
        tree = None
    if tree is None or _depth(tree) > MAX_DEPTH:
        raise ParseError("expression nests too deeply", 0)
    return GraphExpr(tree)


def _depth(node):
    """Levels of a tree, counted without recursion."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [c for n in level for c in
                 ((n.left, n.right) if type(n) is Bin
                  else (n.arg,) if type(n) in (Neg, Call) else ())]
    return depth


# --------------------------------------------------------------------------
# Plain evaluation (complex)
# --------------------------------------------------------------------------

_COMPLEX_FUNCS = {
    "sqrt": cmath.sqrt, "sinh": cmath.sinh, "cosh": cmath.cosh,
    "tanh": cmath.tanh, "sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp,
    "log": cmath.log, "abs": abs,
}

def evaluate(node, u, v):
    """Evaluate a tree at (u, v) in complex arithmetic, constants included, for
    complex field specs: (-1)^0.5 is i, as sqrt(-1) is.  Graphs use the jets."""
    u, v = complex(u), complex(v)

    def rec(n):
        if isinstance(n, Num):
            return complex(n.value)
        if isinstance(n, Var):
            return u if n.name == "u" else v
        if isinstance(n, Const):
            return 1j if n.name == COMPLEX_UNIT else complex(CONSTANTS[n.name])
        if isinstance(n, Neg):
            # 0 - x keeps a real value's +0 imaginary part, so sqrt(-1) is i
            return 0.0 - rec(n.arg)
        if isinstance(n, Call):
            x = rec(n.arg)
            try:
                return complex(_COMPLEX_FUNCS[n.fn](x))
            except ValueError:      # cmath at some infinite arguments
                raise DomainError(f"{n.fn} of {x!r} is undefined") from None
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
            if not cmath.isfinite(b):
                raise DomainError("power with a non-finite exponent")
            try:
                return a ** b
            except ZeroDivisionError:
                raise DomainError("zero base with negative exponent") from None
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if not cmath.isfinite(out):
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


def _each(rule, width, *args):
    """The float rule ``rule`` at each entry of the (N,) arrays ``args`` (a
    float argument is broadcast), as ``width`` arrays of its results: the
    float path's bits, and NaN where the rule raises or an argument is not
    finite.  Functions run ``_derivatives`` on floats, powers the float jet
    rule of ``_Jet.pow``."""
    import numpy as np

    args, rows = np.broadcast_arrays(*args), []
    for xs in zip(*[a.tolist() for a in args]):
        try:
            rows.append(rule(*xs))
        except (ArithmeticError, ValueError, DomainError):
            rows.append((math.nan,) * width)
    out = np.array(rows, dtype=float).reshape(-1, width)
    out[~np.isfinite(args).all(axis=0)] = math.nan
    return out.T


def power(x, n):
    """``x ** n``; on an array numpy's float_power, which rounds as Python's
    float power does (numpy's ``**`` does not)."""
    if isinstance(x, (int, float)):
        return x ** n
    import numpy as np
    return np.float_power(x, n)


def _jet_call(fn, x):
    """A function of the grammar applied to a jet: ``_derivatives`` at x.val,
    composed by x.chain; order three adds f'''.  On an array jet
    ``_derivatives`` runs at each entry, NaN where it raises."""
    v = x.val
    if not isinstance(v, float):
        return x.chain(*_each(lambda t: _derivatives(fn, t), 3, v))
    f0, f1, f2 = _derivatives(fn, v)
    if type(x) is _Jet:
        return x.chain(f0, f1, f2)
    return x.chain(f0, f1, f2, _THIRD_DERIVATIVES[fn](v, f0, f1, f2))


def _derivatives(fn, v):
    """f, f', f'' of a function of the grammar at the float v; raises its
    domain error."""
    if fn in ("sin", "cos") and math.isinf(v):
        raise DomainError(f"{fn} of an infinite value")
    if fn == "sqrt":
        if v <= 0.0:
            raise DomainError("sqrt needs a positive argument for derivatives")
        r = math.sqrt(v)
        return r, 0.5 / r, -0.25 / (r * v)
    if fn == "sinh":
        return math.sinh(v), math.cosh(v), math.sinh(v)
    if fn == "cosh":
        return math.cosh(v), math.sinh(v), math.cosh(v)
    if fn == "tanh":
        t = math.tanh(v)
        s = 1.0 - t * t
        return t, s, -2.0 * t * s
    if fn == "sin":
        return math.sin(v), math.cos(v), -math.sin(v)
    if fn == "cos":
        return math.cos(v), -math.sin(v), -math.cos(v)
    if fn == "exp":
        return (math.exp(v),) * 3
    if fn == "log":
        if v <= 0.0:
            raise DomainError("log of nonpositive value")
        return math.log(v), 1.0 / v, -1.0 / (v * v)
    if fn == "abs":
        if v == 0.0:
            raise DomainError("abs is not differentiable at zero")
        return abs(v), math.copysign(1.0, v), 0.0
    raise TypeError(f"unknown function {fn!r}")


class _Jet:
    """Value, gradient and Hessian with respect to (u, v), propagated forward.

    The six Taylor coefficients are plain scalars: the value ``val``, the
    gradient ``gu``, ``gv`` and the Hessian ``huu``, ``huv``, ``hvv``
    (Griewank and Walther, Evaluating Derivatives, ch. 13).  A float operand
    takes part as a constant without being lifted into a jet.  An order-two
    jet may hold (N,) float arrays, NaN where the float rules would raise.
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
        return self * o._reciprocal()

    def __rtruediv__(self, o):
        return self._reciprocal() * o

    def _reciprocal(self):
        if isinstance(self.val, float):
            if self.val == 0.0:
                raise DomainError("division by zero")
            inv = 1.0 / self.val
            inv3 = inv**3
        else:                           # an array's zeros give inf, and NaN below
            inv = 1.0 / self.val
            inv3 = power(inv, 3)
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
        if not isinstance(self.val, float) or type(o) is _Jet and not isinstance(o.val, float):
            exponent = o.coefficients() if isinstance(o, _Jet) else (o,)
            return _Jet(*_each(lambda *c: _Jet(*c[:6]).pow(_Jet(*c[6:]) if c[7:] else c[6])
                               .coefficients(), 6, *self.coefficients(), *exponent))
        if isinstance(o, _Jet):
            if any(o.coefficients()[1:]):
                if self.val <= 0.0:
                    raise DomainError("variable power of nonpositive base")
                return _jet_call("exp", o * _jet_call("log", self))
            o = o.val
        if not math.isfinite(o):
            raise DomainError("power with a non-finite exponent")
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


def _jet_eval(node, u, v, jet=_Jet) -> _Jet:
    """Jet of a tree at (u, v), of the order of the jet class ``jet``.

    Constant subtrees stay floats and enter the jet rules as plain operands;
    a float is lifted into a jet only where a rule needs one of its own: the
    base of a power, the argument of a function, and an operation between
    two floats (so their domain errors are the jet rules' errors).  On (N,)
    arrays u, v an order-two array jet is left unchecked for its caller.
    """
    if (type(u) is not float or type(v) is not float) and not getattr(u, "ndim", 0):
        u, v = float(u), float(v)
    ju, jv = jet(u, 1.0), jet(v, 0.0, 1.0)

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
            if n.name == COMPLEX_UNIT:
                raise DomainError(f"constant {n.name!r} is complex; jets are real")
            return CONSTANTS[n.name]
        raise TypeError(f"not an expression node: {n!r}")

    out = rec(node)
    if type(out) is not jet:
        out = jet(out)
    if isinstance(u, float) and not all(map(math.isfinite, (out.val, out.gu, out.gv,
                                                            out.huu, out.huv, out.hvv))):
        raise EvaluationError("expression jet produced a non-finite value")
    return out


# --------------------------------------------------------------------------
# Charts and jets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet2:
    """Position with first and second parameter derivatives at one point.

    Floats in nested sequences (tuples from the evaluators): ``x`` holds the
    m ambient coordinates, ``du[a][i]`` the first and ``duu[a][i][j]`` the
    second derivatives for k parameters (k = 2 for surface charts).
    """

    x: tuple
    du: tuple
    duu: tuple

    @property
    def height(self):
        return self.x[-1]


def third_order_jet(node, u, v) -> _Jet3:
    """Order-three jet of an expression tree at (u, v)."""
    j = _jet_eval(node, u, v, _Jet3)
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


def jet_tuples(jets):
    """(x, du, duu) of a list of component jets, as tuples of floats."""
    return (tuple([j.val for j in jets]),
            tuple([(j.gu, j.gv) for j in jets]),
            tuple([((j.huu, j.huv), (j.huv, j.hvv)) for j in jets]))


_ZERO_HESSIAN = ((0.0, 0.0), (0.0, 0.0))


class GraphEvaluator:
    """Graph (u, v, f(u, v)) with exact jets from the expression engine."""

    def __init__(self, expr: GraphExpr):
        self.expr = expr

    @property
    def component_asts(self):
        return (Var("u"), Var("v"), self.expr.ast)

    def jet(self, u, v):
        j = _jet_eval(self.expr.ast, u, v)
        return ((u, v, j.val), ((1.0, 0.0), (0.0, 1.0), (j.gu, j.gv)),
                (_ZERO_HESSIAN, _ZERO_HESSIAN, ((j.huu, j.huv), (j.huv, j.hvv))))


class ClosedFormEvaluator:
    """Parametric chart with exact jets.

    Built either from per-component expressions or from a callable returning
    (x, du, duu) directly, as nested sequences of floats.
    """

    def __init__(self, components=None, jet_fn=None):
        if (components is None) == (jet_fn is None):
            raise ValueError("give either components or jet_fn")
        self.components = tuple(components) if components is not None else None
        self._jet_fn = jet_fn

    @property
    def component_asts(self):
        return tuple(c.ast for c in self.components)

    def jet(self, u, v):
        if self._jet_fn is not None:
            return self._jet_fn(u, v)
        return jet_tuples([_jet_eval(c.ast, u, v) for c in self.components])


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

    def contains(self, u, v):
        """Whether (u, v) is interior to the domain, on floats or arrays."""
        u0, u1, v0, v1 = self.domain
        return (u0 < u) & (u < u1) & (v0 < v) & (v < v1)

    def interior_points(self, count, rng, margin_frac=0.05):
        """Uniform random interior points, keeping a fractional margin."""
        import numpy as np

        u0, u1, v0, v1 = self.domain
        mu, mv = margin_frac * (u1 - u0), margin_frac * (v1 - v0)
        us = rng.uniform(u0 + mu, u1 - mu, count)
        vs = rng.uniform(v0 + mv, v1 - mv, count)
        return np.column_stack([us, vs])


def jet2_eval(chart: SurfaceChart, p) -> Jet2:
    """Evaluate the two-jet of a chart at an interior parameter point.

    Raises OutsideDomain, then the errors of check_chart_jet.  The jet keeps
    the evaluator's float containers.
    """
    u, v = float(p[0]), float(p[1])
    if not chart.contains(u, v):
        raise OutsideDomain(f"({u}, {v}) is not interior to {chart.domain}")
    x, du, duu = chart.evaluator.jet(u, v)
    check_chart_jet(chart.ambient, u, v, x, du)
    return Jet2(x, du, duu)


def check_chart_jet(space: ambient.AmbientSpace, u, v, x, du):
    """The chart contract of chart_ok on a jet's values x and du at (u, v):
    raises HeightViolation for a nonpositive height, then NonImmersed."""
    h = x[-1]
    if not (h > 0.0):
        raise HeightViolation(
            f"surface point {tuple(map(float, x))} has nonpositive height")
    if not chart_ok(space, h, du):
        raise NonImmersed(f"Gram determinant {gram_determinant(space, h, du):.3e} "
                          f"at ({u}, {v})")


def chart_ok(space: ambient.AmbientSpace, h, du):
    """Whether height h and tangent map du give a positive height and a Gram
    determinant off zero (the chart contract), on floats or (N,) arrays."""
    return (h > 0.0) & (abs(gram_determinant(space, h, du)) >= GRAM_DET_TOL)


def gram_determinant(space: ambient.AmbientSpace, h, du):
    """Determinant of the Gram matrix of the induced metric sum_a eps_a du_a
    du_a / h^2, in closed form."""
    e = f = g = 0.0
    for s, (xu, xv) in zip(space.signature, du):
        e += s * xu * xu
        f += s * xu * xv
        g += s * xv * xv
    h2 = h * h
    return (e / h2) * (g / h2) - (f / h2) * (f / h2)


def linspace(start, stop, num):
    """``num`` evenly spaced floats from start to stop inclusive, the bits of
    ``numpy.linspace(start, stop, num)``: i * step + start with the last
    point set to stop, and (i / div) * delta + start where the step
    underflows to zero."""
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0.0:
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]
