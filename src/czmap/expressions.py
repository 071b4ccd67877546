"""Arithmetic expression language for chart and map definitions.

Grammar (standard precedence, unary minus binds tighter than '^'):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # right associative power
    unary  := '-' unary | atom
    atom   := number | name | name '(' expr {',' expr} ')' | '(' expr ')'

Known functions: sin, cos, exp, log, sqrt, pow, abs.  ``pi`` is a built-in
constant.  Parsing errors carry the column; evaluation either returns finite
values on the whole input or raises a located :class:`EvalError`.

An :class:`Expression` compiles its tree once, on first call, into one
closure that runs the same numpy operations in the same order as the tree
walk :func:`evaluate`, so its values are the same bits.  The closure runs
with numpy's overflow, divide-by-zero and invalid flags raising, and its
output is checked for finiteness once.  A raised flag, a non-finite input
or a non-finite output sends the call back through :func:`evaluate`, which
stays the single source of located :class:`EvalError` exceptions.

Expressions differentiate symbolically (:func:`derive`), which is what backs
the analytic derivative oracles of charts and maps.
"""

from __future__ import annotations

import difflib
import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ExpressionSyntaxError, UnknownIdentifier

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2, "abs": 1}
CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Node:
    pos: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    child: Node = None


@dataclass(frozen=True)
class Bin(Node):
    op: str = ""
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    name: str = ""
    args: tuple = ()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character '{text[at]}'", at, text)
        if m.group("num") is not None:
            span = m.group(0).strip()
            tokens.append(("num", float(span), m.start() + (m.end() - m.start() - len(span))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.end() - len(m.group("name"))))
        else:
            tokens.append(("op", m.group("op"), m.end() - 1))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.variables = tuple(variables)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected '{op}'", pos, self.text)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token '{val}'", pos, self.text)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(op=val, left=node, right=self.term(), pos=pos)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(op=val, left=node, right=self.factor(), pos=pos)
            else:
                return node

    def factor(self) -> Node:
        node = self.unary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            node = Bin(op="^", left=node, right=self.factor(), pos=pos)
        return node

    def unary(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(child=self.unary(), pos=pos)
        return self.atom()

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(value=val, pos=pos)
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    suggestions = difflib.get_close_matches(val, FUNCTIONS, n=3)
                    raise UnknownIdentifier(val, pos, self.text, suggestions)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, p2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[val]:
                    raise ExpressionSyntaxError(
                        f"{val}() takes {FUNCTIONS[val]} argument(s), got {len(args)}",
                        pos, self.text)
                return Call(name=val, args=tuple(args), pos=pos)
            if val in CONSTANTS:
                return Num(value=CONSTANTS[val], pos=pos)
            if val not in self.variables:
                pool = list(self.variables) + list(FUNCTIONS) + list(CONSTANTS)
                suggestions = difflib.get_close_matches(val, pool, n=3,
                                                        cutoff=0.5)
                raise UnknownIdentifier(val, pos, self.text, suggestions)
            return Var(name=val, pos=pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            "expected a number, name or '('" if kind != "end" else "unexpected end of expression",
            pos, self.text)


def parse_expression(text: str, variables=()) -> Node:
    """Parse ``text`` over the given variable names into an AST."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0, text)
    return _Parser(text, variables).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_string(node: Node) -> str:
    """Canonical text form; ``parse(to_string(n))`` reproduces ``n``."""
    if isinstance(node, Num):
        v = node.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_string(node.child)
        # '-' binds tighter than '^': parenthesize any compound operand
        if _prec(node.child) < _PREC["atom"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, Bin):
        lp, rp = _prec(node.left), _prec(node.right)
        p = _PREC[node.op]
        left = to_string(node.left)
        right = to_string(node.right)
        if node.op == "^":
            # right associative; unary minus outranks '^'
            if lp <= p:
                left = f"({left})"
            if rp < p:
                right = f"({right})"
        else:
            if lp < p:
                left = f"({left})"
            if rp < p or (rp == p and node.op in "-/"):
                right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"unknown node {node!r}")


def _check_finite(value, node: Node, text: str, what: str):
    if not np.all(np.isfinite(value)):
        raise EvalError(f"{what} produced a non-finite value", node.pos, text)
    return value


def evaluate(node: Node, env: dict, text: str = "") -> np.ndarray:
    """Evaluate on an environment of floats/arrays; total or EvalError."""
    if isinstance(node, Num):
        return np.asarray(node.value, dtype=float)
    if isinstance(node, Var):
        if node.name not in env:
            raise EvalError(f"unbound variable '{node.name}'", node.pos, text)
        return np.asarray(env[node.name], dtype=float)
    if isinstance(node, Neg):
        return -evaluate(node.child, env, text)
    if isinstance(node, Bin):
        a = evaluate(node.left, env, text)
        b = evaluate(node.right, env, text)
        with np.errstate(all="ignore"):
            if node.op == "+":
                out = a + b
            elif node.op == "-":
                out = a - b
            elif node.op == "*":
                out = a * b
            elif node.op == "/":
                out = a / b
            else:
                out = _power(a, b)
        return _check_finite(out, node, text, f"'{node.op}'")
    if isinstance(node, Call):
        args = [evaluate(a, env, text) for a in node.args]
        with np.errstate(all="ignore"):
            if node.name == "sin":
                out = np.sin(args[0])
            elif node.name == "cos":
                out = np.cos(args[0])
            elif node.name == "exp":
                out = np.exp(args[0])
            elif node.name == "log":
                out = np.log(args[0])
            elif node.name == "sqrt":
                out = np.sqrt(args[0])
            elif node.name == "abs":
                out = np.abs(args[0])
            else:
                out = _power(args[0], args[1])
        return _check_finite(out, node, text, f"{node.name}()")
    raise TypeError(f"unknown node {node!r}")


def _power(a, b):
    b_arr = np.asarray(b)
    if b_arr.ndim == 0 and float(b_arr) == int(float(b_arr)):
        return np.power(a, int(float(b_arr)))
    return np.power(a, b)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "abs": np.abs}


def _compilable(node: Node, variables: tuple) -> bool:
    """Whether a compiled tree can only fail where the tree walk fails.

    Every variable must be bound and every number finite: an infinite
    literal can become non-finite without raising a floating-point flag.
    """
    for leaf in _leaves(node):
        if isinstance(leaf, Var) and leaf.name not in variables:
            return False
        if isinstance(leaf, Num) and not math.isfinite(leaf.value):
            return False
    return True


def _kernel(node: Node):
    """One closure ``env -> value`` with the tree walk's numpy operations."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda env: value
    if isinstance(node, Var):
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Neg):
        child = _kernel(node.child)
        return lambda env: -child(env)
    if isinstance(node, Bin):
        left, right = _kernel(node.left), _kernel(node.right)
        if node.op == "^":
            return _power_kernel(left, node.right, right)
        op = _BINARY[node.op]
        return lambda env: op(left(env), right(env))
    if isinstance(node, Call):
        args = [_kernel(a) for a in node.args]
        if node.name == "pow":
            return _power_kernel(args[0], node.args[1], args[1])
        fn, (arg,) = _UNARY[node.name], args
        return lambda env: fn(arg(env))
    raise TypeError(f"unknown node {node!r}")


def _power_kernel(base, exponent_node: Node, exponent):
    """:func:`_power`, with the integer test of a literal exponent done once."""
    if isinstance(exponent_node, Num) and exponent_node.value == int(exponent_node.value):
        k = int(exponent_node.value)
        return lambda env: np.power(base(env), k)
    return lambda env: _power(base(env), exponent(env))


def _num(v: float) -> Num:
    return Num(value=float(v))


_ZERO, _ONE = _num(0.0), _num(1.0)


def _is_num(node: Node, value=None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def simplify(node: Node) -> Node:
    """Constant folding and identity pruning; keeps derivatives readable."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        c = simplify(node.child)
        if _is_num(c):
            return _num(-c.value)
        if isinstance(c, Neg):
            return c.child
        return Neg(child=c, pos=node.pos)
    if isinstance(node, Call):
        args = tuple(simplify(a) for a in node.args)
        if all(_is_num(a) for a in args):
            try:
                return _num(float(evaluate(Call(name=node.name, args=args), {})))
            except EvalError:
                pass
        return Call(name=node.name, args=args, pos=node.pos)
    a, b = simplify(node.left), simplify(node.right)
    op = node.op
    if _is_num(a) and _is_num(b):
        try:
            return _num(float(evaluate(Bin(op=op, left=a, right=b), {})))
        except EvalError:
            pass
    if op == "+":
        if _is_num(a, 0.0):
            return b
        if _is_num(b, 0.0):
            return a
    elif op == "-":
        if _is_num(b, 0.0):
            return a
        if _is_num(a, 0.0):
            return simplify(Neg(child=b))
    elif op == "*":
        if _is_num(a, 0.0) or _is_num(b, 0.0):
            return _ZERO
        if _is_num(a, 1.0):
            return b
        if _is_num(b, 1.0):
            return a
        if _is_num(a, -1.0):
            return simplify(Neg(child=b))
        if _is_num(b, -1.0):
            return simplify(Neg(child=a))
    elif op == "/":
        if _is_num(a, 0.0):
            return _ZERO
        if _is_num(b, 1.0):
            return a
    elif op == "^":
        if _is_num(b, 1.0):
            return a
        if _is_num(b, 0.0):
            return _ONE
    return Bin(op=op, left=a, right=b, pos=node.pos)


def substitute(node: Node, mapping: dict) -> Node:
    """Replace variables by AST fragments (capture-free, one pass)."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(child=substitute(node.child, mapping), pos=node.pos)
    if isinstance(node, Bin):
        return Bin(op=node.op, left=substitute(node.left, mapping),
                   right=substitute(node.right, mapping), pos=node.pos)
    if isinstance(node, Call):
        return Call(name=node.name,
                    args=tuple(substitute(a, mapping) for a in node.args),
                    pos=node.pos)
    raise TypeError(f"unknown node {node!r}")


def _leaves(node: Node):
    """The numbers and variables of the tree."""
    if isinstance(node, Neg):
        yield from _leaves(node.child)
    elif isinstance(node, Bin):
        yield from _leaves(node.left)
        yield from _leaves(node.right)
    elif isinstance(node, Call):
        for a in node.args:
            yield from _leaves(a)
    else:
        yield node


def has_variable(node: Node) -> bool:
    """True when some leaf of the tree is a variable."""
    return any(isinstance(leaf, Var) for leaf in _leaves(node))


def derive(node: Node, var: str) -> Node:
    """Symbolic partial derivative with respect to ``var``."""
    return simplify(_derive(node, var))


def _derive(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        return Neg(child=_derive(node.child, var))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        da, db = _derive(a, var), _derive(b, var)
        if node.op == "+":
            return Bin(op="+", left=da, right=db)
        if node.op == "-":
            return Bin(op="-", left=da, right=db)
        if node.op == "*":
            return Bin(op="+",
                       left=Bin(op="*", left=da, right=b),
                       right=Bin(op="*", left=a, right=db))
        if node.op == "/":
            num = Bin(op="-",
                      left=Bin(op="*", left=da, right=b),
                      right=Bin(op="*", left=a, right=db))
            return Bin(op="/", left=num, right=Bin(op="^", left=b, right=_num(2)))
        return _derive_power(a, b, da, db)
    if isinstance(node, Call):
        if node.name == "pow":
            a, b = node.args
            return _derive_power(a, b, _derive(a, var), _derive(b, var))
        (a,) = node.args
        da = _derive(a, var)
        if node.name == "sin":
            outer = Call(name="cos", args=(a,))
        elif node.name == "cos":
            outer = Neg(child=Call(name="sin", args=(a,)))
        elif node.name == "exp":
            outer = Call(name="exp", args=(a,))
        elif node.name == "log":
            outer = Bin(op="/", left=_ONE, right=a)
        elif node.name == "sqrt":
            outer = Bin(op="/", left=_num(0.5), right=Call(name="sqrt", args=(a,)))
        else:  # abs: a / abs(a), undefined at 0 like abs itself
            outer = Bin(op="/", left=a, right=Call(name="abs", args=(a,)))
        return Bin(op="*", left=outer, right=da)
    raise TypeError(f"unknown node {node!r}")


def _derive_power(a: Node, b: Node, da: Node, db: Node) -> Node:
    if _is_num(b):
        # d(a^c) = c * a^(c-1) * a'
        return Bin(op="*",
                   left=Bin(op="*", left=b,
                            right=Bin(op="^", left=a, right=_num(b.value - 1.0))),
                   right=da)
    # d(a^b) = a^b * (b' log a + b a'/a)
    term1 = Bin(op="*", left=db, right=Call(name="log", args=(a,)))
    term2 = Bin(op="/", left=Bin(op="*", left=b, right=da), right=a)
    return Bin(op="*",
               left=Bin(op="^", left=a, right=b),
               right=Bin(op="+", left=term1, right=term2))


class Expression:
    """A parsed expression bound to an ordered variable tuple.

    Callable on arrays of points of shape ``(..., m)``; partials are
    symbolic and cached per axis.
    """

    def __init__(self, source, variables):
        self.variables = tuple(variables)
        if isinstance(source, str):
            self.text = source
            self.ast = parse_expression(source, self.variables)
        else:
            self.ast = source
            self.text = to_string(source)
        self._partials: dict[int, Expression] = {}
        self._dilations: dict[float, Expression] = {}

    @functools.cached_property
    def _compiled(self):
        """The compiled tree, or None where only the tree walk is exact."""
        if not _compilable(self.ast, self.variables):
            return None
        return _kernel(self.ast)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        env = {name: points[..., k] for k, name in enumerate(self.variables)}
        out = None
        # a non-finite input can turn into a finite output without a flag
        if self._compiled is not None and np.isfinite(points).all():
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    out = self._compiled(env)
            except FloatingPointError:
                pass
        if out is None or not np.isfinite(out).all():
            out = evaluate(self.ast, env, self.text)
        return np.broadcast_to(out, points.shape[:-1]).astype(float, copy=True) \
            if out.shape != points.shape[:-1] else out

    def partial(self, axis: int) -> "Expression":
        if axis not in self._partials:
            ast = derive(self.ast, self.variables[axis])
            self._partials[axis] = Expression(ast, self.variables)
        return self._partials[axis]

    def dilated(self, factor: float) -> "Expression":
        """The composition with coordinate scaling x -> factor * x, built
        once per factor (so its partials are derived once too)."""
        if factor not in self._dilations:
            mapping = {v: Bin(op="*", left=_num(factor), right=Var(name=v))
                       for v in self.variables}
            self._dilations[factor] = Expression(substitute(self.ast, mapping),
                                                 self.variables)
        return self._dilations[factor]

    def __repr__(self):
        return f"Expression({self.text!r}, vars={self.variables})"
