"""Symbolic expressions of one real variable with complex values.

Everything downstream (superpotentials, masses, potentials, log-derivatives)
is built on this small AST: parse text, differentiate exactly, evaluate at
double precision.  Nodes are immutable and hash-consed: a structurally
identical node is the same object (constants count as identical by bit
pattern, so 0.0 and -0.0 stay apart), an expression is a DAG, and every walk
below visits each unique node once.  Nodes can be shared freely between
threads and cached without copying.

Grammar accepted by :func:`parse` (whitespace is ignored)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" factor)?
    atom   := number | "x" | "i" | "pi" | identifier
            | func "(" expr ")" | "(" expr ")"
    func   := sin | cos | tan | sec | exp | log | sqrt | sinh | cosh | tanh

"^" is right-associative and binds tighter than unary minus, so "-x^2"
means -(x^2) and "x^-2" is accepted.  Numbers may use scientific notation.
Any identifier other than "x", "i", "pi" and the function names is a free
parameter to be bound at evaluation time.

Construction applies only safe local simplifications (constant folding,
0*f -> 0, f^1 -> f, f^2 -> f*f, double negation); no aggressive rewriting,
so differentiation output stays predictable.

Parity/conjugation images (see model.pt_image) may contain an internal
conjugation node printed as "conj(...)"; it is not part of the input
grammar and such trees are not meant to be re-parsed.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import struct
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Param", "Neg", "Conj",
    "Add", "Sub", "Mul", "Div", "Pow", "Func",
    "ParamEnv", "ExprError", "ParseError", "EvaluationError",
    "UnboundParameterError", "PoleError",
    "parse", "differentiate", "evaluate", "evaluate_many", "substitute_x",
    "parameter_names", "node_counts",
    "add", "sub", "mul", "div", "pow_", "neg", "conj_expr", "func",
    "X", "IMAG", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "sec", "exp", "log", "sqrt",
             "sinh", "cosh", "tanh")

# Denominators (and cos under sec/tan) smaller than this are treated as a
# pole hit even though the floating-point value is still finite.
POLE_TOLERANCE = 1e-13

Number = Union[int, float, complex]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(ExprError):
    """Evaluation failed; the message names the offending subexpression."""


class UnboundParameterError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"unbound parameter '{name}'")
        self.name = name


class PoleError(EvaluationError):
    def __init__(self, subexpr: "Expr", x: float, detail: str = "pole hit"):
        super().__init__(f"{detail} in '{subexpr}' at x={x!r}")
        self.subexpr = subexpr
        self.x = x


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# The node table: (type, scalar fields, ids of child nodes) -> a weak
# reference to the live node of that structure, which carries its key.  A
# node holds its children, so the ids in a live key are still theirs.  A hit
# reads the table without the lock: one dict read and one call of the
# reference, each atomic.  A miss takes the lock, reads again and inserts.
# When a node dies, the callback of its reference removes the entry
# atomically and only while the entry still holds a dead reference (as
# WeakValueDictionary does), so it never removes a newer node of the same
# structure, and it never takes the lock, which a collection run by this
# very thread may hold.
_NODES = {}
_LOCK = threading.Lock()


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, remove=_remove_dead_weakref, nodes=_NODES):
    remove(nodes, ref.key)


class _HashConsed(type):
    """Metaclass of the nodes: calling a node class with the fields of a live
    node returns that node.  The lookup is O(1): a name is keyed by value, a
    constant by its bit pattern, and a child, interned already, by identity
    (the node holds its children, so their ids stay theirs while it lives).
    A node keeps its field values as ``_args``, its structural hash and,
    once differentiated, its first derivative (``_deriv``)."""

    def __call__(cls, *args, **kwargs):
        fields = cls.__dataclass_fields__
        if kwargs or len(args) != len(fields):
            # the dataclass __init__ binds keywords and rejects a bad call
            bound = super().__call__(*args, **kwargs)
            args = tuple(getattr(bound, name) for name in fields)
        if cls is Const:
            args = (complex(*args),)
            key = (cls, struct.pack("2d", args[0].real, args[0].imag))
        elif cls is Param or cls is Func:
            key = (cls, args[0], *map(id, args[1:]))
        else:
            key = (cls, *map(id, args))
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        with _LOCK:     # one node per structure under threads, too
            ref = _NODES.get(key)
            if ref is None or (node := ref()) is None:
                node = super().__call__(*args)
                object.__setattr__(node, "_args", args)
                object.__setattr__(node, "_hash", hash((cls, *args)))
                object.__setattr__(node, "_deriv", None)
                ref = _Ref(node, _forget)
                ref.key = key
                _NODES[key] = ref
        return node


_node = dataclass(frozen=True, eq=False, slots=True)


@dataclass(frozen=True, eq=False)
class Expr(metaclass=_HashConsed):
    """Base node; all concrete nodes are frozen dataclasses.  ``==`` is
    structural (so Const(0.0) == Const(-0.0)) and the hash is cached."""

    __slots__ = ("_args", "_hash", "_deriv", "__weakref__")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._args == other._args

    def __hash__(self):
        return self._hash

    def __reduce__(self):      # copies and unpickled nodes are interned too
        return type(self), self._args

    def __add__(self, other):  return add(self, _as_expr(other))
    def __radd__(self, other): return add(_as_expr(other), self)
    def __sub__(self, other):  return sub(self, _as_expr(other))
    def __rsub__(self, other): return sub(_as_expr(other), self)
    def __mul__(self, other):  return mul(self, _as_expr(other))
    def __rmul__(self, other): return mul(_as_expr(other), self)
    def __truediv__(self, other):  return div(self, _as_expr(other))
    def __rtruediv__(self, other): return div(_as_expr(other), self)
    def __pow__(self, other):  return pow_(self, _as_expr(other))
    def __neg__(self):         return neg(self)

    def __str__(self) -> str:
        return _render(self)[0]


@_node
class Const(Expr):
    value: complex      # stored as a complex


@_node
class Var(Expr):
    """The independent variable x."""


@_node
class Param(Expr):
    name: str


@_node
class Neg(Expr):
    arg: Expr


@_node
class Conj(Expr):
    """Complex conjugation; internal to parity images, not in the grammar."""
    arg: Expr


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: Expr


@_node
class Func(Expr):
    name: str
    arg: Expr


X = Var()
IMAG = Const(1j)

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, complex)):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to Expr")


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# ---------------------------------------------------------------------------
# Smart constructors: safe local simplification only
# ---------------------------------------------------------------------------

def _fold(op, a: Expr, b: Expr):
    """Const(op(a, b)) when both operands are constants and the result is
    finite; None when it is not, or when the operation raises."""
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            folded = op(a.value, b.value)
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
        if cmath.isfinite(folded):
            return Const(folded)
    return None


def add(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(operator.add, a, b)) is not None:
        return folded
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(operator.sub, a, b)) is not None:
        return folded
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(operator.mul, a, b)) is not None:
        return folded
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(operator.truediv, a, b)) is not None:
        return folded
    if _is_const(b, 1):
        return a
    return Div(a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if (folded := _fold(operator.pow, a, b)) is not None:
        return folded
    if _is_const(b, 0):
        return _ONE
    if _is_const(b, 1):
        return a
    if _is_const(b, 2):
        return mul(a, a)
    return Pow(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        # 0 - v, not -v: a real's +0 imaginary part stays +0, keeping a
        # negated real on the principal side of the branch cuts
        return Const(0 - a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def conj_expr(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(a.value.conjugate())
    if isinstance(a, Conj):
        return a.arg
    return Conj(a)


def func(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function '{name}'")
    return Func(name, arg)


# node type -> its smart constructor, which takes the node's fields in order
_REBUILD = {Neg: neg, Conj: conj_expr, Add: add, Sub: sub, Mul: mul,
            Div: div, Pow: pow_, Func: func}


def _rebuild(e: Expr, f) -> Expr:
    """The node ``e`` built again through its smart constructor from ``f``
    of each child, left to right; a Func keeps its name."""
    return _REBUILD[type(e)](*[f(v) if isinstance(v, Expr) else v
                               for v in e._args])


class _Memo(dict):
    """A walk that applies ``rule(node, walk)`` once per unique node, after
    its children, left to right; the rule reads its children's results by
    calling ``walk``.  It keeps no stack of calls, so depth is unlimited."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __call__(self, root: Expr):
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in self:
                stack.pop()
                continue
            todo = [v for v in reversed(node._args)
                    if isinstance(v, Expr) and id(v) not in self]
            if todo:
                stack += todo
            else:
                stack.pop()
                self[id(node)] = self.rule(node, self)
        return self[id(root)]


def parameter_names(e: Expr) -> list:
    """Names of the free parameters of e, each once, in tree-walk order."""
    names = {}

    def visit(node: Expr, walk) -> None:
        if isinstance(node, Param):
            names.setdefault(node.name)
    _Memo(visit)(e)
    return list(names)


def node_counts(e) -> tuple:
    """(tree nodes, unique nodes) of e, in time linear in the unique ones.
    Of a tuple of expressions: the sum of their tree nodes and the unique
    nodes of their joint DAG."""
    size = _Memo(lambda node, size: 1 + sum(
        size(v) for v in node._args if isinstance(v, Expr)))
    return sum(map(size, e if isinstance(e, tuple) else (e,))), len(size)


# ---------------------------------------------------------------------------
# Parameter environment
# ---------------------------------------------------------------------------

class ParamEnv:
    """Immutable map name -> complex value; unbound lookups always raise."""

    def __init__(self, values: Mapping[str, Number] | None = None, **kwargs: Number):
        merged = dict(values or {})
        merged.update(kwargs)
        self._values = {name: complex(v) for name, v in merged.items()}

    def lookup(self, name: str) -> complex:
        try:
            return self._values[name]
        except KeyError:
            raise UnboundParameterError(name) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"ParamEnv({inner})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One token at the cursor: a number, an identifier, an operator or any
# other non-space character.  Tokens are matched lazily, as the parser asks
# for them, so the first error in reading order is the one reported.
_TOKEN = re.compile(r"\s*(?:(?P<number>[\d.]+(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<other>\S))?")

# Left-associative binary operators, loosest level first.
_BINARY = ({"+": add, "-": sub}, {"*": mul, "/": div})


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self._ahead = (-1, None, 0)     # (position, token, end) last scanned

    def peek(self):
        if self._ahead[0] != self.pos:
            self._ahead = (self.pos, *self._scan())
        return self._ahead[1]

    def next(self):
        token = self.peek()
        self.pos = self._ahead[2]
        return token

    def _scan(self):
        """The (kind, text, offset) token at the cursor and the position
        after it."""
        m = _TOKEN.match(self.source, self.pos)
        kind = m.lastgroup
        if kind is None:
            return ("end", "", m.end()), m.end()
        text, offset = m.group(kind), m.start(kind)
        if kind == "number":
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"malformed number '{text}'", offset) from None
            if math.isinf(value):
                raise ParseError(f"number out of range '{text}'", offset)
        # \w also holds digits that are not decimal, such as "²" and "½",
        # and those may not start a name
        elif kind == "other" or (kind == "ident" and text[0] != "_"
                                 and not text[0].isalpha()):
            raise ParseError(f"unexpected character {text[0]!r}", offset)
        return (kind, text, offset), m.end()


class _Parser:
    def __init__(self, source: str):
        self.toks = _Tokenizer(source)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.toks.peek()
        if kind != "end":
            if text == ")":
                raise ParseError("unbalanced ')'", offset)
            raise ParseError(f"unexpected trailing input '{text}'", offset)
        return e

    def expr(self, level: int = 0) -> Expr:
        if level == len(_BINARY):
            return self.factor()
        e = self.expr(level + 1)
        while (build := _BINARY[level].get(self.toks.peek()[1])) is not None:
            self.toks.next()
            e = build(e, self.expr(level + 1))
        return e

    def factor(self) -> Expr:
        if self.toks.peek()[1] == "-":
            self.toks.next()
            return neg(self.factor())
        base = self.atom()
        if self.toks.peek()[1] == "^":
            self.toks.next()
            return pow_(base, self.factor())
        return base

    def close(self) -> None:
        _, text, offset = self.toks.next()
        if text != ")":
            raise ParseError("expected ')'", offset)

    def atom(self) -> Expr:
        kind, text, offset = self.toks.next()
        if kind == "number":
            return Const(float(text))
        if text == "(":
            e = self.expr()
            self.close()
            return e
        if kind == "ident":
            if text == "x":
                return X
            if text == "i":
                return IMAG
            if text == "pi":
                return Const(math.pi)
            if self.toks.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.toks.next()
                arg = self.expr()
                self.close()
                return Func(text, arg)
            return Param(text)
        raise ParseError(f"expected an operand, found '{text or 'end of input'}'",
                         offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an Expr.  Raises ParseError with a byte offset,
    also for nesting deeper than the interpreter's recursion limit allows."""
    parser = _Parser(source)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.toks.pos) from None


# ---------------------------------------------------------------------------
# Printer (round-trips through parse for grammar-built trees)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD),
          Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}


def _fmt_real(v: float) -> str:
    if v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr):
    """Return (text, precedence).  The walk keeps its own stack (_Memo), so
    depth is unlimited."""
    return _Memo(_render_node)(e)


def _render_node(e: Expr, walk):
    """(text, precedence) of e from walk(child), its children's."""
    def child(c: Expr, minimum: int) -> str:
        text, prec = walk(c)
        return f"({text})" if prec < minimum else text

    if isinstance(e, Const):
        re_, im_ = e.value.real, e.value.imag
        if im_ == 0.0:
            if re_ < 0:
                return f"-{_fmt_real(-re_)}", _PREC_UNARY
            return _fmt_real(re_), _PREC_ATOM
        if re_ == 0.0:
            if im_ == 1.0:
                return "i", _PREC_ATOM
            if im_ < 0:
                return f"-{_fmt_real(-im_)}*i", _PREC_MUL
            return f"{_fmt_real(im_)}*i", _PREC_MUL
        sign = "-" if im_ < 0 else "+"
        return (f"({_fmt_real(re_)}{sign}{_fmt_real(abs(im_))}*i)", _PREC_ATOM)
    if isinstance(e, Var):
        return "x", _PREC_ATOM
    if isinstance(e, Param):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        return f"-{child(e.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(e, Conj):
        return f"conj({walk(e.arg)[0]})", _PREC_ATOM
    if type(e) in _INFIX:
        symbol, prec = _INFIX[type(e)]
        return f"{child(e.left, prec)}{symbol}{child(e.right, prec + 1)}", prec
    if isinstance(e, Pow):
        base = child(e.base, _PREC_ATOM)
        expo = child(e.exponent, _PREC_UNARY)
        return f"{base}^{expo}", _PREC_POW
    if isinstance(e, Func):
        return f"{e.name}({walk(e.arg)[0]})", _PREC_ATOM
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Differentiation (exact, closed over the grammar)
# ---------------------------------------------------------------------------

def differentiate(e: Expr, k: int = 1) -> Expr:
    """k-th exact symbolic derivative with respect to x (k >= 1).  Each node
    keeps its first derivative (``_deriv``), so a node is differentiated
    once while it lives; the walk keeps its own stack."""
    if not isinstance(k, int) or k < 1:
        raise ExprError(f"derivative order must be a positive integer, got {k!r}")
    for _ in range(k):
        stack = [e]
        while stack:
            node = stack.pop()
            todo = [v for v in node._args
                    if isinstance(v, Expr) and v._deriv is None]
            if todo:
                stack += [node, *todo]
            elif node._deriv is None:
                object.__setattr__(node, "_deriv", _d(node, _derived))
        e = e._deriv
    return e


def _derived(e: Expr) -> Expr:
    return e._deriv


# d/du of each function with a product chain rule f(u)' = f'(u) u'; log and
# sqrt keep their quotient forms u'/u and u'/(2 sqrt(u))
_OUTER = {
    "sin": lambda u: func("cos", u),
    "cos": lambda u: neg(func("sin", u)),
    "tan": lambda u: mul(func("sec", u), func("sec", u)),
    "sec": lambda u: mul(func("sec", u), func("tan", u)),
    "exp": lambda u: func("exp", u),
    "sinh": lambda u: func("cosh", u),
    "cosh": lambda u: func("sinh", u),
    "tanh": lambda u: sub(_ONE, mul(func("tanh", u), func("tanh", u))),
}


def _d(e: Expr, d) -> Expr:
    """d/dx of the node e; ``d`` differentiates its children."""
    if isinstance(e, (Const, Param)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, (Neg, Conj, Add, Sub)):
        # d/dx is linear, and commutes with conjugation because x is real
        return _rebuild(e, d)
    if isinstance(e, Mul):
        return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
    if isinstance(e, Div):
        num = sub(mul(d(e.left), e.right), mul(e.left, d(e.right)))
        return div(num, mul(e.right, e.right))
    if isinstance(e, Pow):
        f, g = e.base, e.exponent
        if isinstance(g, Const):
            # principal branch: d/dx f^c = c f^(c-1) f'
            return mul(mul(g, pow_(f, Const(g.value - 1))), d(f))
        inner = add(mul(d(g), func("log", f)), mul(g, div(d(f), f)))
        return mul(e, inner)
    if isinstance(e, Func):
        u, du = e.arg, d(e.arg)
        if e.name == "log":
            return div(du, u)
        if e.name == "sqrt":
            return div(du, mul(Const(2.0), func("sqrt", u)))
        return mul(_OUTER[e.name](u), du)
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, x: float, env=None) -> complex:
    """Evaluate at one real x; see :func:`evaluate_many`."""
    return complex(evaluate_many(e, [x], env)[0])


def evaluate_many(e, xs: Iterable[float], env=None):
    """Evaluate at every point of ``xs`` in one walk over the DAG, each
    unique subexpression once; returns a complex ndarray of the same length.
    ``e`` may also be a tuple of expressions: the result is then the tuple
    of their arrays, from one walk over their joint DAG, compiled for this
    call alone (_compile).  Deterministic.  Each returned array is the
    caller's own.

    Raises UnboundParameterError for missing parameters and PoleError when
    a denominator (or cos under sec/tan) falls below POLE_TOLERANCE or an
    intermediate stops being finite.  The error is the one a point-by-point
    walk would raise: at the first point of ``xs`` that fails, for the first
    failing node in evaluation order there.  Of a tuple, the first
    expression that fails raises, as one call per expression would.  One run
    keeps a sentinel per point (see _Plan); where one is not finite, each
    expression is compiled and runs again alone, and its steps replay such
    points singly until one raises; if none does, a sentinel overflowed.
    """
    roots = e if isinstance(e, tuple) else (e,)
    xs = np.asarray(xs if hasattr(xs, "__len__") else list(xs), dtype=float)
    env = env if isinstance(env, ParamEnv) else ParamEnv(env)
    with np.errstate(all="ignore"):
        plan = _Plan(_compile(roots), xs, env)
        values = plan.run()
        if not np.isfinite(plan.total).all():
            for root in roots:
                if len(roots) > 1:
                    (plan := _Plan(_compile((root,)), xs, env)).run()
                for i in np.flatnonzero(~np.isfinite(plan.total)):
                    _Plan(plan.code, xs[i:i + 1], env, raising=True).run()
    # a root's array is returned as computed; a constant root, or a second
    # reference to an array already returned, is copied
    returned = set()
    for k, value in enumerate(values):
        if type(value) is not np.ndarray or id(value) in returned:
            values[k] = value = np.broadcast_to(value, xs.shape).astype(complex)
        returned.add(id(value))
    return tuple(values) if isinstance(e, tuple) else values[0]


# Nodes with no check that could fail: their values are never watched.
_LEAVES = frozenset((Const, Var, Param))


class _Plan:
    """One run of compiled steps (see _compile) over all points.  Each
    array is dropped after its last read.

    Each point keeps a sentinel, ``total``: a sum of numbers stays finite
    only if all of them are, and a failing explicit condition (pole,
    log(0), 0^complex, unbound parameter) sets it to NaN.  A value adds
    into it (``watch``) only where a later step could turn its failure
    finite: a root, a Div's denominator, a Pow's operands, a Func's
    argument, and the cosine under sec/tan.  Any other value is read by a
    complex +, -, *, negation, conjugation or a Div's numerator, and those
    keep a value that is not finite not finite, so it reaches a watched
    value; a leaf is never watched, since no check of its own can fail.
    So a point that fails leaves its sentinel not finite.  A ``raising``
    run, of one point, checks every value and raises at its first failing
    check instead: the error a scalar walk meets first, since a shared
    node's first visit comes before any repeat."""

    def __init__(self, code, xs: np.ndarray, env: ParamEnv, raising=False):
        self.code, self.xs, self.env, self.raising = code, xs, env, raising
        self.x = (xs + 0.0).astype(complex)    # x = -0.0 is the point 0.0
        self.total = np.zeros(xs.shape, complex)

    def run(self) -> list:
        """The values of the roots."""
        steps, outs = self.code
        values = self.values = [None] * len(steps)
        for k, (step, e, a, b, dead) in enumerate(steps):
            if b is not None:
                values[k] = step(self, e, values[a], values[b])
            elif a is not None:
                values[k] = step(self, e, values[a])
            else:
                values[k] = step(self, e)
            for i in dead:
                values[i] = None
        out = [values[k] for k in outs]
        for k in dict.fromkeys(outs):
            self.watch(values[k], steps[k][1])
            values[k] = None
        return out

    def watch(self, value, e=None):
        """Add ``value``, of node ``e`` (None: of no node), into the
        sentinel, unless e is a leaf.  Returns ``value``."""
        if type(e) not in _LEAVES:
            self.total += value
        return value

    def check(self, value, e: Expr, detail: str, mask=None):
        """Set the sentinel to NaN where ``mask`` holds; a raising run raises
        a ``detail`` PoleError of node ``e`` there instead, and also where
        ``value`` is not finite if no mask is given.  Returns ``value``."""
        if mask is None:
            if not self.raising:
                return value
            mask = ~np.isfinite(value)
        if mask.any():
            if self.raising:
                raise PoleError(e, float(self.xs[0]), detail)
            self.total[mask] = np.nan
        return value


# The steps: the value of a node from its operands' values, one function
# per node type, and the check of a Div's denominator, which runs first.

def _param(plan: _Plan, e: Param):
    try:
        return np.complex128(plan.env.lookup(e.name))
    except UnboundParameterError:
        if plan.raising:
            raise
        plan.total += np.nan
        return np.complex128(np.nan)


def _arithmetic(ufunc):
    return lambda plan, e, a, b: plan.check(ufunc(a, b), e, "non-finite value")


def _pow(plan: _Plan, e: Pow, base, expo):
    plan.watch(base, e.base)
    plan.watch(expo, e.exponent)
    value = plan.check(base ** expo, e, "pole hit")
    # Python's complex power raises at 0 to a complex exponent
    return plan.check(value, e, "pole hit", (base == 0) & (np.imag(expo) != 0))


def _func(plan: _Plan, e: Func, u):
    plan.watch(u, e.arg)
    if e.name in ("tan", "sec"):
        c = plan.watch(plan.check(np.cos(u), e, "overflow"))
        plan.check(c, e, "pole hit", np.abs(c) < POLE_TOLERANCE)
        value = np.sin(u) / c if e.name == "tan" else 1.0 / c
    elif e.name == "log":
        value = np.log(plan.check(u, e, "pole hit", u == 0))
    else:
        value = getattr(np, e.name)(u)      # np.sin for sin, and so on
    return plan.check(value, e, "overflow")


def _pole(plan: _Plan, e: Div, den) -> None:
    plan.watch(den, e.right)
    plan.check(den, e, "pole hit", np.abs(den) < POLE_TOLERANCE)


# node type -> (its step, the first of its fields that is an operand)
_STEPS = {
    Const: (lambda plan, e: np.complex128(e.value), 1), Param: (_param, 1),
    Var: (lambda plan, e: plan.x, 0), Conj: (lambda plan, e, u: np.conj(u), 0),
    Neg: (lambda plan, e, u: 0 - u, 0),        # as in neg()
    Add: (_arithmetic(np.add), 0), Sub: (_arithmetic(np.subtract), 0),
    Mul: (_arithmetic(np.multiply), 0), Div: (_arithmetic(np.divide), 0),
    Pow: (_pow, 0), Func: (_func, 1)}


def _compile(roots) -> tuple:
    """The joint DAG of ``roots`` as a flat list of steps, one per unique
    node, each (step function, node, its operands' steps or None, the steps
    whose values die after it), and the steps of the roots.  The steps
    follow a tree walk that skips repeat visits: operands left to right,
    except that Div evaluates its denominator and checks it for a pole
    (_pole) first, so at any one point the checks run as in a scalar walk."""
    slot = {}           # id(node) -> the step that computes it
    last = {}           # step -> the last step that reads its value
    steps = []
    # a node on the stack is to be visited, a tuple (function, node,
    # operand nodes) is a step whose operands are done
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        if type(e) is tuple:
            step, e, operands = e
        elif id(e) in slot:
            continue
        else:
            step, first = _STEPS[type(e)]
            operands = e._args[first:]
            if operands:
                stack.append((step, e, operands))
                stack += ([e.left, (_pole, e, operands[1:]), e.right]
                          if type(e) is Div else operands[::-1])
                continue
        k = len(steps)
        a = b = None
        if operands:
            last[a := slot[id(operands[0])]] = k
            if len(operands) == 2:
                last[b := slot[id(operands[1])]] = k
        if step is not _pole:
            slot[id(e)] = k
        steps.append((step, e, a, b, []))
    outs = [slot[id(root)] for root in roots]
    for i, k in last.items():
        if i not in outs:       # the caller reads the roots last
            steps[k][4].append(i)
    return steps, outs


# ---------------------------------------------------------------------------
# Structural substitution
# ---------------------------------------------------------------------------

def substitute_x(e: Expr, replacement: Expr) -> Expr:
    """Replace the variable x by ``replacement``, rebuilding through the
    simplifying constructors."""
    def rule(node: Expr, walk) -> Expr:
        if isinstance(node, Var):
            return replacement
        if isinstance(node, (Const, Param)):
            return node
        return _rebuild(node, walk)
    return _Memo(rule)(e)
