"""Two-jet evaluation of parametric surfaces and graphs.

The module owns a small expression language for user-supplied graph functions
f(u, v) and evaluates it as plain numbers or as forward jets: of order two
(value, gradient, Hessian), so graph charts have exact derivatives, and of
order three, so the polar map, which differentiates a chart, has them too.
A tree, or a chart's component trees one after another, is compiled once
per order into a kernel, straight-line Python over local floats that
performs the operations of the jet rules in their order (source
transformation: Griewank and Walther, Evaluating Derivatives, ch. 6 and
13).  Only the build walks a tree.  A chart's one kernel gives its point
jets, its polar map's order-three jets and, point by point, the rows of a
fit's cloud.  The same emitter
compiles plain arithmetic traced on its operands (``compile_traced``, of
order one, two or three): the polar map, written once for floats, runs
so as kernels, its checks and sign choices (``read``, ``where``) emitted as
calls to the functions of floats that the float path calls.

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
MAX_DEPTH = 200     # levels of the deepest tree; kernel builds and `evaluate` recurse per level


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
        val, gu, gv, huu, huv, hvv = _jet_eval(self.ast, u, v)
        return val, (gu, gv), ((huu, huv), (huv, hvv))


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


def power(x, n):
    """``x ** n``; on an array numpy's float_power, which rounds as Python's
    float power does (numpy's ``**`` does not)."""
    if isinstance(x, (int, float)):
        return x ** n
    import numpy as np
    return np.float_power(x, n)


def _finite(fn, v):
    if math.isinf(v):
        raise DomainError(f"{fn} of an infinite value")
    return v


def _sqrt(v):
    if v <= 0.0:
        raise DomainError("sqrt needs a positive argument for derivatives")
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


def _tanh(v):
    t = math.tanh(v)
    s = 1.0 - t * t
    return t, s, -2.0 * t * s


def _log(v):
    if v <= 0.0:
        raise DomainError("log of nonpositive value")
    return math.log(v), 1.0 / v, -1.0 / (v * v)


def _abs(v):
    if v == 0.0:
        raise DomainError("abs is not differentiable at zero")
    return abs(v), math.copysign(1.0, v), 0.0


# f, f', f'' of each function of the grammar at a float; each raises its
# domain error.
_RULES = {
    "sqrt": _sqrt,
    "sinh": lambda v: (math.sinh(v), math.cosh(v), math.sinh(v)),
    "cosh": lambda v: (math.cosh(v), math.sinh(v), math.cosh(v)),
    "tanh": _tanh,
    "sin": lambda v: (math.sin(_finite("sin", v)), math.cos(v), -math.sin(v)),
    "cos": lambda v: (math.cos(_finite("cos", v)), -math.sin(v), -math.cos(v)),
    "exp": lambda v: (math.exp(v),) * 3,
    "log": _log,
    "abs": _abs,
}


def _rule(fn):
    """The rule of the function named fn; an unknown name's rule raises
    TypeError when called."""
    rule = _RULES.get(fn)
    if rule is None:
        def rule(v):
            raise TypeError(f"unknown function {fn!r}")
    return rule


def _power_derivatives(v, o):
    """f, f', f'', f''' of t -> t^o at the float v, for an exponent o known
    only at call time; None where o is 0, whose power is the constant 1.
    A kernel inlines this rule for an exponent it knows."""
    if not math.isfinite(o):
        raise DomainError("power with a non-finite exponent")
    if o == round(o):
        n = int(round(o))
        if n == 0:
            return None
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
    # f''' = (o - 2) f'' / v; v is 0 only for an integer o >= 1.
    return f0, f1, f2, (o - 2.0) * f2 / v if v != 0.0 else (6.0 if o == 3 else 0.0)


# --------------------------------------------------------------------------
# Kernels: each tree or chart compiled once into straight-line jet code
# --------------------------------------------------------------------------

# The slots of a jet's coefficients: value, gradient, Hessian and, of order
# three, the third derivatives.  In the rules below ``{auv}`` is the d_uv
# slot of the operand a.
_SLOTS = ("", "u", "v", "uu", "uv", "vv", "uuu", "uuv", "uvv", "vvv")

# Each rule is the expression of one coefficient of a jet operation, with
# the operations, the order and the grouping of the jet class ``_Jet`` (order
# two) and of its order-three extension, which tests/oracles.py keeps, so a
# kernel keeps the bits of either; order one takes the first three.  The
# product a * b:
_MUL = ("{a} * {b}", "{au} * {b} + {bu} * {a}", "{av} * {b} + {bv} * {a}",
        "{auu} * {b} + {buu} * {a} + {au} * {bu} + {au} * {bu}",
        "{auv} * {b} + {buv} * {a} + {au} * {bv} + {av} * {bu}",
        "{avv} * {b} + {bvv} * {a} + {av} * {bv} + {av} * {bv}",
        "{auuu} * {b} + {buuu} * {a} + 3.0 * ({auu} * {bu} + {au} * {buu})",
        "{auuv} * {b} + {buuv} * {a} + {auu} * {bv} + {av} * {buu}"
        " + 2.0 * ({auv} * {bu} + {au} * {buv})",
        "{auvv} * {b} + {buvv} * {a} + {avv} * {bu} + {au} * {bvv}"
        " + 2.0 * ({auv} * {bv} + {av} * {buv})",
        "{avvv} * {b} + {bvvv} * {a} + 3.0 * ({avv} * {bv} + {av} * {bvv})")
# The derivatives of f(a), given f' to f''' at a's value (Faa di Bruno):
_CHAIN = ("{f1} * {au}", "{f1} * {av}",
          "{f1} * {auu} + {f2} * ({au} * {au})",
          "{f1} * {auv} + {f2} * ({au} * {av})",
          "{f1} * {avv} + {f2} * ({av} * {av})",
          "{f1} * {auuu} + {f2} * (3.0 * {au} * {auu}) + {f3} * ({au} * {au} * {au})",
          "{f1} * {auuv} + {f2} * ({auu} * {av} + 2.0 * {au} * {auv})"
          " + {f3} * ({au} * {au} * {av})",
          "{f1} * {auvv} + {f2} * ({avv} * {au} + 2.0 * {av} * {auv})"
          " + {f3} * ({au} * {av} * {av})",
          "{f1} * {avvv} + {f2} * (3.0 * {av} * {avv}) + {f3} * ({av} * {av} * {av})")
# 1 / a to order two, from inv = 1 / a and inv3 = inv ** 3:
_RECIPROCAL = ("{inv}", "-{au} * {inv} * {inv}", "-{av} * {inv} * {inv}",
               "-{auu} * {inv} * {inv} + 2.0 * ({au} * {au}) * {inv3}",
               "-{auv} * {inv} * {inv} + 2.0 * ({au} * {av}) * {inv3}",
               "-{avv} * {inv} * {inv} + 2.0 * ({av} * {av}) * {inv3}")


def _named(prefix, jet):
    return {prefix + slot: c for slot, c in zip(_SLOTS, jet)}


class _Emitter:
    """Writes one kernel: the operations of the jet rules over local names.

    A jet is a list of the names of its coefficients (or the literals 0.0
    and 1.0); a float, the value of a constant subtree, is a pair of its
    name and, where the build knows it, its value.  Constants live in the
    namespace ``ns``, so no text of a tree reaches the source.  Every
    operation is emitted in the walker's post-order, so the kernel raises
    the walker's first error.  A reciprocal is emitted once per divisor:
    the same straight-line code gives the same bits.
    """

    def __init__(self, order, ns):
        self.width, self.ns = (order + 1) * (order + 2) // 2, ns
        self.lines, self.pad, self.count, self.reciprocals = [], "    ", 0, {}

    def const(self, value):
        name = f"c{len(self.ns)}"
        self.ns[name] = value
        return name

    def line(self, text):
        self.lines.append(f"{self.pad}{text}\n")

    def let(self, expr):
        if expr.isidentifier():
            return expr
        self.count += 1
        self.line(f"t{self.count} = {expr}")
        return f"t{self.count}"

    def unpack(self, expr, count):
        names = [f"t{self.count + i + 1}" for i in range(count)]
        self.count += count
        self.line(f"{', '.join(names)} = {expr}")
        return names

    def fail(self, cond, message, error="DomainError"):
        text = f"raise {error}({self.const(message)})"
        self.line(f"if {cond}: {text}" if cond else text)

    def rule(self, templates, **names):
        return [self.let(t.format(**names)) for t in templates]

    def lift(self, x):
        return [x[0]] + ["0.0"] * (self.width - 1) if type(x) is tuple else x

    def branch(self, cond, then, other):
        """``if cond: then() else: other()``; the names both assign."""
        out = [f"t{self.count + i + 1}" for i in range(self.width)]
        self.count += self.width
        kept = dict(self.reciprocals)   # one arm's reciprocals are unset in the other
        for head, body in ((f"if {cond}:", then), ("else:", other)):
            self.line(head)
            self.pad += "    "
            self.line(f"{', '.join(out)} = {', '.join(body())}")
            self.pad, self.reciprocals = self.pad[:-4], dict(kept)
        return out

    def function(self, params, result):
        source = f"def kernel({params}):\n{''.join(self.lines)}    return {result}\n"
        exec(compile(source, "<jet kernel>", "exec"), self.ns)
        return self.ns.pop("kernel")

    def text(self, x):
        """Source of x: an operand's value, a list or tuple of sources, or a
        constant."""
        if type(x) is _Operand:
            return x.x[0]
        if type(x) is list or type(x) is tuple:
            inner = ", ".join(map(self.text, x))
            return f"[{inner}]" if type(x) is list else f"({inner},)"
        return self.const(x)

    def operand(self, x):
        """A jet of the coefficient names x, or the float of the name x."""
        return _Operand(self, (x, None) if type(x) is str else list(x))

    def read(self, fn, args):
        """The call fn(*args) on the values of the operands in args, as a
        float operand."""
        return _Operand(self, (self.let(f"{self.const(fn)}({', '.join(map(self.text, args))})"),
                               None))

    def select(self, flag, a, b):
        """The jets of the list a where the value named flag is true, else
        those of b, coefficient by coefficient."""
        return [_Operand(self, [p if p == q else self.let(f"{p} if {flag} else {q}")
                                for p, q in zip(x.x, y.x)]) for x, y in zip(a, b)]

    def walk(self, n):
        """Emit a subtree; its value."""
        kind = type(n)
        if kind is Var:
            jet = ["u", "1.0", "0.0"] if n.name == "u" else ["v", "0.0", "1.0"]
            return jet + ["0.0"] * (self.width - 3)
        if kind is Num:
            k = self.const(n.value)
            return (k, n.value) if type(n.value) is float else (self.let(f"float({k})"), None)
        if kind is Const:               # an unknown name raises the lookup's KeyError
            if n.name == COMPLEX_UNIT:
                self.fail(None, f"constant {n.name!r} is complex; jets are real")
            if n.name in CONSTANTS:
                return self.const(CONSTANTS[n.name]), CONSTANTS[n.name]
            return self.let(f"CONSTANTS[{self.const(n.name)}]"), None
        if kind is Neg:
            x = self.walk(n.arg)
            if type(x) is tuple:
                return self.let(f"-{x[0]}"), None if x[1] is None else -x[1]
            return [self.let(f"-{c}") for c in x]
        if kind is Call:
            return self.call(n.fn, self.lift(self.walk(n.arg)))
        if kind is Bin:
            a, b, op = self.walk(n.left), self.walk(n.right), n.op
            if type(a) is tuple and (op == "^" or type(b) is tuple):
                a = self.lift(a)
            if op == "+" or op == "-":
                return self.plus(a, b, "+" if op == "+" else "-")
            if op == "*":
                return self.times(a, b)
            if op == "/":
                return self.divide(a, b)
            if type(a) is tuple:
                self.fail(None, "'float' object has no attribute 'pow'", "AttributeError")
            return self.power(self.lift(a), b)
        self.line(f'raise TypeError(f"not an expression node: {{{self.const(n)}!r}}")')
        return "0.0", None

    def plus(self, a, b, sign):
        if type(a) is tuple:            # float +- jet: the jet's reflected rule
            if sign == "+":
                return [self.let(f"{b[0]} + {a[0]}"), *b[1:]]
            return [self.let(f"{a[0]} - {b[0]}"), *[self.let(f"-{c}") for c in b[1:]]]
        if type(b) is tuple:
            return [self.let(f"{a[0]} {sign} {b[0]}"), *a[1:]]
        return [self.let(f"{x} {sign} {y}") for x, y in zip(a, b)]

    def times(self, a, b):
        if type(a) is tuple:
            a, b = b, a
        if type(b) is tuple:
            return [self.let(f"{c} * {b[0]}") for c in a]
        return self.rule(_MUL[:self.width], **_named("a", a), **_named("b", b))

    def divide(self, a, b):
        key = b[0] if type(b) is tuple else tuple(b)
        r = self.reciprocals.get(key)
        if r is None:
            r = self.reciprocals[key] = self.reciprocal(b)
        if type(b) is tuple:
            return [self.let(f"{c} * {r}") for c in a]
        return [self.let(f"{c} * {a[0]}") for c in r] if type(a) is tuple else self.times(a, r)

    def reciprocal(self, b):
        """1 / b: a name for a float b, else a jet."""
        self.fail(f"{b[0]} == 0.0", "division by zero")
        inv = self.let(f"1.0 / {b[0]}")
        if type(b) is tuple:
            return inv
        if self.width == 3:
            return self.rule(_RECIPROCAL[:3], **_named("a", b), inv=inv)
        inv3 = self.let(f"{inv} ** 3")
        r = self.rule(_RECIPROCAL, **_named("a", b), inv=inv, inv3=inv3)
        if self.width == 10:
            f = [self.let(f"-{inv} * {inv}"), self.let(f"2.0 * {inv3}"),
                 self.let(f"-6.0 * {inv3} * {inv}")]
            r += self.rule(_CHAIN[5:], **_named("a", b), f1=f[0], f2=f[1], f3=f[2])
        return r

    def chain(self, a, f0, f1, f2, f3=None):
        return [f0, *self.rule(_CHAIN[:self.width - 1], **_named("a", a), f1=f1, f2=f2, f3=f3)]

    def call(self, fn, a):
        f = self.unpack(f"{self.const(_rule(fn))}({a[0]})", 3)
        if self.width == 10:
            third = self.const(_THIRD_DERIVATIVES[fn] if fn in FUNCTIONS else None)
            f.append(self.let(f"{third}({a[0]}, {', '.join(f)})"))
        return self.chain(a, *f)

    def power(self, a, b):
        """a ** b for a jet a; a jet exponent b takes exp(b log a) where its
        derivatives are not all zero at call time, as ``_Jet.pow`` did."""
        if type(b) is list:
            def variable():
                self.fail(f"{a[0]} <= 0.0", "variable power of nonpositive base")
                return self.call("exp", self.times(b, self.call("log", a)))
            return self.branch(" or ".join(b[1:]), variable, lambda: self.runtime_power(a, b[0]))
        return self.runtime_power(a, b[0]) if b[1] is None else self.constant_power(a, b[1])

    def runtime_power(self, a, o):
        """a ** o for an exponent o known only at call time."""
        p = self.let(f"power_derivatives({a[0]}, {o})")
        return self.branch(f"{p} is None", lambda: self.lift(("1.0", 1.0)),
                           lambda: self.chain(a, *self.unpack(p, 4)))

    def constant_power(self, a, o):
        """``_power_derivatives`` inlined for the exponent o, then the chain."""
        v, k = a[0], self.const
        if not math.isfinite(o):
            self.fail(None, "power with a non-finite exponent")
            return a
        if o == round(o):
            n = int(round(o))
            if n == 0:
                return self.lift(("1.0", 1.0))
            if n < 0:
                self.fail(f"{v} == 0.0", "zero base with negative exponent")
            f = [self.let(f"{v} ** {k(n)}"), self.let(f"{k(n)} * {v} ** {k(n - 1)}"),
                 self.let(f"{k(n * (n - 1))} * {v} ** {k(n - 2)}") if n != 1 else "0.0"]
        else:
            self.fail(f"{v} <= 0.0", "non-integer power of nonpositive base")
            f = [self.let(f"{v} ** {k(o)}")]
            f += [self.let(f"{k(o)} * {f[0]} / {v}"),
                  self.let(f"{k(o * (o - 1.0))} * {f[0]} / ({v} * {v})")]
        if self.width == 10:
            f.append(self.let(f"{k(o - 2.0)} * {f[2]} / {v} if {v} != 0.0 "
                              f"else {6.0 if o == 3 else 0.0}"))
        return self.chain(a, *f)


def _emitter(order):
    return _Emitter(order, {"power_derivatives": _power_derivatives, "isfinite": math.isfinite,
                            "CONSTANTS": CONSTANTS, "DomainError": DomainError,
                            "EvaluationError": EvaluationError})


def _build(trees, order):
    """The kernels of a tree, or of a tuple of a chart's component trees:
    row(u, v) -> each component's jet coefficients in turn and, for a
    tuple, jet(u, v) -> (x, du, duu) of their order-two parts.  Each
    component ends in its finiteness screen (EvaluationError) before the
    next begins, so the first component to fail raises its error."""
    e = _emitter(order)
    row = []
    for tree in trees if type(trees) is tuple else (trees,):
        out = e.lift(e.walk(tree))
        names = [c for c in out if c.isidentifier()]
        if names:                       # the sum screens: 0 * x is 0 for a finite x
            e.fail(f"({' + '.join(names)}) * 0.0 != 0.0 and "
                   f"not ({' and '.join(f'isfinite({c})' for c in names)})",
                   "expression jet produced a non-finite value", "EvaluationError")
        row += out
    kernel = e.ns["row"] = e.function("u, v", _tuple(row))
    if type(trees) is not tuple:
        return kernel, None
    p = [f"p{i}" for i in range(len(row))]
    e.lines = [f"    [{', '.join(p)}] = row(u, v)\n"]
    c = [p[i:i + e.width] for i in range(0, len(p), e.width)]
    return kernel, e.function("u, v", _tuple(_tuple(t.format(*j) for j in c) for t in
                                             ("{0}", "({1}, {2})", "(({3}, {4}), ({4}, {5}))")))


def _tuple(items):
    """Source of a tuple of the sources items."""
    return f"({''.join(f'{x}, ' for x in items)})"


def compile_traced(order, params, body):
    """``kernel(<params>)`` of order ``order`` from ``body(e)``, arithmetic
    traced once on operands of the emitter e (``e.unpack``, ``e.operand``);
    it returns the values of what body returns (operands in lists, tuples)."""
    e = _emitter(order)
    _TRACES.append(e)
    try:
        result = body(e)
    finally:
        _TRACES.remove(e)
    return e.function(params, e.text(result))


_TRACES = []            # the emitters tracing a kernel now, in any thread


KERNEL_MEMO = 256
_KERNELS = {}           # (id(trees), order) -> (trees, row, jet), oldest first


def chart_kernels(trees, order=2):
    """(trees, row, jet): the kernels of ``_build`` of order two or three,
    from the memo.  It is keyed on the identity of ``trees`` (a frozen tree
    would hash all its nodes at every lookup), so a chart keeps its tuple;
    it keeps them, so nothing else takes their key; past KERNEL_MEMO entries
    the oldest goes.  Two threads may build one entry twice, both right."""
    entry = _KERNELS.get((id(trees), order))
    if entry is None or entry[0] is not trees:
        entry = _KERNELS[id(trees), order] = (trees, *_build(trees, order))
        while len(_KERNELS) > KERNEL_MEMO:
            try:
                del _KERNELS[next(iter(_KERNELS))]
            except (KeyError, RuntimeError):    # another thread changed the memo
                pass
    return entry


def _jet_eval(trees, u, v, order=2):
    """The Taylor coefficients at the floats (u, v) of a tree, or of each
    tree of a tuple in turn, from the row kernel: of order two the value,
    gradient and Hessian (val, gu, gv, huu, huv, hvv), of order three also
    d_uuu, d_uuv, d_uvv, d_vvv.  Constant subtrees stay floats; a float is
    lifted into a jet only where a rule needs one of its own: the base of a
    power, the argument of a function, and an operation between two floats
    (so their domain errors are the jet rules' errors)."""
    if type(u) is not float or type(v) is not float:
        u, v = float(u), float(v)
    return chart_kernels(trees, order)[1](u, v)


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


def third_order_jet(trees, u, v) -> tuple:
    """The ten coefficients of the order-three jet of an expression tree at
    (u, v): value, gradient, Hessian, then d_uuu, d_uuv, d_uvv, d_vvv; of a
    tuple of trees, those of each tree in turn."""
    return _jet_eval(trees, u, v, 3)


# The slots of x, x_u and x_v, each of order two, in an order-three jet of x.
PARTIALS = ((0, 1, 2, 3, 4, 5), (1, 3, 4, 6, 7, 8), (2, 4, 5, 7, 8, 9))


def _operators(cls):
    """Give the operand class + - * / and their reflections, each emitting
    its jet rule."""
    for name, rule in (("add", lambda e, a, b: e.plus(a, b, "+")),
                       ("sub", lambda e, a, b: e.plus(a, b, "-")), ("mul", _Emitter.times),
                       ("truediv", _Emitter.divide)):
        setattr(cls, f"__{name}__", lambda self, o, rule=rule: self.apply(rule, o, False))
        setattr(cls, f"__r{name}__", lambda self, o, rule=rule: self.apply(rule, o, True))
    return cls


@_operators
class _Operand:
    """A value of a kernel being built: a jet, as the list of its
    coefficients' names, or a float known only at run time, (name, None).
    Its operators emit the jet rules, so arithmetic run on operands writes a
    kernel with the bits of that arithmetic run on jets."""

    __slots__ = ("e", "x")

    def __init__(self, e, x):
        self.e, self.x = e, x

    def apply(self, rule, o, reflected):
        b = o.x if type(o) is _Operand else (self.e.const(o), o)
        a = self.e.lift(self.x) if type(self.x) is tuple and type(b) is tuple else self.x
        return _Operand(self.e, rule(self.e, *((b, a) if reflected else (a, b))))

    def __neg__(self):
        return _Operand(self.e, [self.e.let(f"-{c}") for c in self.x])

    def call(self, fn):
        """The function of the grammar named fn, by its jet rule."""
        return _Operand(self.e, self.e.call(fn, self.e.lift(self.x)))

    def coefficients(self):
        return [_Operand(self.e, (c, None)) for c in self.x]


def read(fn, *args):
    """``fn(*args)`` for a function fn of the float values of its arguments
    (a check or a sign choice), on floats or jets.  While a kernel is
    traced, an operand among the arguments makes it emit the call into the
    kernel instead, on the operands' values (in lists too), and return a
    float operand."""
    if _TRACES and _Operand in map(type, args):
        return next(a for a in args if type(a) is _Operand).e.read(fn, args)
    return fn(*args)


def where(flag, fn, xs):
    """``fn(xs) if flag else xs``, for a list xs of jets; on an operand
    flag, a choice that the kernel makes."""
    if type(flag) is _Operand:
        return flag.e.select(flag.x[0], fn(xs), xs)
    return fn(xs) if flag else xs


def jet_sqrt(x):
    """Square root of a float, or of a jet (a kernel operand, or any jet
    with its ``call``) by the jet rule of sqrt."""
    return math.sqrt(x) if isinstance(x, (int, float)) else x.call("sqrt")


def jet_tuples(jets):
    """(x, du, duu) of component jets (kernel operands), as tuples of their
    coefficients, for a kernel's result; (x, du) of order one."""
    c = [j.coefficients() for j in jets]
    out = (tuple(j[0] for j in c), tuple((j[1], j[2]) for j in c))
    if len(c[0]) == 3:
        return out
    return (*out, tuple(((j[3], j[4]), (j[4], j[5])) for j in c))


_ZERO_HESSIAN = ((0.0, 0.0), (0.0, 0.0))


class GraphEvaluator:
    """Graph (u, v, f(u, v)) with exact jets from the expression engine."""

    def __init__(self, expr: GraphExpr):
        self.expr = expr
        # Built once: the kernel memo is keyed on the tuple's identity.
        self.component_asts = (Var("u"), Var("v"), expr.ast)

    def jet(self, u, v):
        val, gu, gv, huu, huv, hvv = _jet_eval(self.expr.ast, u, v)
        return ((u, v, val), ((1.0, 0.0), (0.0, 1.0), (gu, gv)),
                (_ZERO_HESSIAN, _ZERO_HESSIAN, ((huu, huv), (huv, hvv))))


class ClosedFormEvaluator:
    """Parametric chart with exact jets.

    Built either from per-component expressions or from a callable returning
    (x, du, duu) directly, as nested sequences of floats.
    """

    def __init__(self, components=None, jet_fn=None):
        if (components is None) == (jet_fn is None):
            raise ValueError("give either components or jet_fn")
        # Built once: the kernel memo is keyed on the tuple's identity.
        self.component_asts = None if components is None else tuple(c.ast for c in components)
        self._jet_fn = jet_fn

    def jet(self, u, v):
        if self._jet_fn is not None:
            return self._jet_fn(u, v)
        if type(u) is not float or type(v) is not float:
            u, v = float(u), float(v)
        return chart_kernels(self.component_asts)[2](u, v)


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
