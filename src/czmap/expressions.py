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

One compiler, :class:`Program`, turns trees into a generated numpy
function of straight-line code: one line per distinct subtree (equal
subtrees are hash-consed; ``pos`` is ignored, literals count by type and
bits), each line the numpy operation the tree walk :func:`evaluate` makes,
so the values are the same bits.  Arithmetic on traced values
(:class:`Symbol`, :class:`TracedArray`) writes its operations into the
same program.

* An :class:`Expression` compiles itself, on first call, as a program of
  one tree.  It runs with numpy's overflow, divide-by-zero and invalid
  flags raising, and its output is checked for finiteness once.  A raised
  flag, a non-finite input or a non-finite output sends the call back
  through :func:`evaluate`, which stays the single source of located
  :class:`EvalError` exceptions.
* A chart kernel (:meth:`MetricChart.geodesic_acceleration`) is a program
  of every metric oracle of an analytic chart plus the traced acceleration
  arithmetic, so each distinct subtree of the whole oracle table is
  evaluated once per call.

Expressions differentiate symbolically (:func:`derive`), which is what backs
the analytic derivative oracles of charts and maps.
"""

from __future__ import annotations

import difflib
import functools
import math
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
        if abs(v) < 1e16 and v == int(v):       # int() refuses inf and nan
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


class Program:
    """Straight-line numpy code, built into one Python function.

    Each line computes one local from locals, arguments and constants.
    Equal lines are written once: equal subtrees (keyed on operation and
    operand names, so ``pos`` is ignored and literals count by type and
    bits) and equal arithmetic are evaluated once.  Every line is the
    operation that the tree walk, or the traced arithmetic, performs on
    the same values, so the function returns the same bits.  Constants
    are closure variables of the function; no expression text reaches
    its source.
    """

    def __init__(self):
        self.lines = []
        self.locals = {}                   # right-hand side -> local name
        self.constants = {}                # (type, repr) -> name
        self.values = []                   # constant values, in name order

    def operand(self, value) -> str:
        """The name of a traced value or of a constant."""
        if isinstance(value, Symbol):
            return value.name
        key = (type(value), repr(value))
        if key not in self.constants:
            self.constants[key] = f"c{len(self.values)}"
            self.values.append(value)
        return self.constants[key]

    def emit(self, template: str, *operands) -> "Symbol":
        """The local that holds ``template`` filled with operand names."""
        code = template.format(*(self.operand(v) for v in operands))
        if code not in self.locals:
            self.locals[code] = f"t{len(self.locals)}"
            self.lines.append(f"{self.locals[code]} = {code}")
        return Symbol(self, self.locals[code])

    def expression(self, expr: "Expression"):
        """The value of a compilable ``expr`` at the argument ``p``, the
        points: every variable's column is read, as
        :meth:`Expression.__call__` reads them, then the tree, one line per
        distinct subtree."""
        columns = {}
        for k, name in enumerate(expr.variables):
            columns[name] = self.emit(f"p[..., {k}]")
        return self._node(expr.ast, columns)

    def _node(self, node: Node, columns: dict):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Var):
            return columns[node.name]
        if isinstance(node, Neg):
            return self.emit("-{}", self._node(node.child, columns))
        if isinstance(node, Bin) and node.op in ("+", "-", "*", "/"):
            return self.emit("{} %s {}" % node.op,
                             self._node(node.left, columns),
                             self._node(node.right, columns))
        if isinstance(node, Call) and node.name in _UNARY:
            return self.emit(node.name + "({})",
                             self._node(node.args[0], columns))
        if isinstance(node, Bin) and node.op == "^":
            base, exponent = node.left, node.right
        elif isinstance(node, Call) and node.name == "pow":
            base, exponent = node.args
        else:
            raise TypeError(f"unknown node {node!r}")
        if isinstance(exponent, Num) and exponent.value == int(exponent.value):
            # _power's integer test, done once on the literal
            return self.emit("power({}, {})", self._node(base, columns),
                             int(exponent.value))
        return self.emit("_power({}, {})", self._node(base, columns),
                         self._node(exponent, columns))

    def build(self, arguments: str, result):
        """The function ``kernel(arguments)`` that runs the lines and
        returns ``result``, with the constants bound in its closure."""
        returned = self.operand(result)
        body = "".join(f"        {line}\n" for line in self.lines)
        source = (f"def bind({', '.join(self.constants.values())}):\n"
                  f"    def kernel({arguments}):\n{body}"
                  f"        return {returned}\n"
                  f"    return kernel\n")
        return _binder(source)(*self.values)


@functools.lru_cache(maxsize=1024)
def _binder(source: str):
    """The function ``bind`` of a program's source, compiled once per
    source: a search rebuilds the same expressions, with other constants,
    many times."""
    namespace = {"power": np.power, "_power": _power, **_UNARY}
    exec(compile(source, "<czmap kernel>", "exec"), namespace)
    return namespace["bind"]


def _traced(op: str, reflected: bool = False):
    """The method ``self op other`` (``other op self`` if reflected) of
    :class:`Symbol`."""
    if reflected:
        return lambda self, other: self.program.emit("{} %s {}" % op, other, self)
    return lambda self, other: self.program.emit("{} %s {}" % op, self, other)


class Symbol:
    """A traced value, one local of a :class:`Program`.  Arithmetic with
    symbols and Python numbers writes the operation into the program and
    returns the symbol of its result."""

    __slots__ = ("program", "name")

    def __init__(self, program: Program, name: str):
        self.program, self.name = program, name

    __add__, __radd__ = _traced("+"), _traced("+", True)
    __sub__, __rsub__ = _traced("-"), _traced("-", True)
    __mul__, __rmul__ = _traced("*"), _traced("*", True)
    __truediv__, __rtruediv__ = _traced("/"), _traced("/", True)

    def __neg__(self):
        return self.program.emit("-{}", self)


class TracedArray(Symbol):
    """An array local of a :class:`Program`, read and written as
    ``a[..., k]``."""

    __slots__ = ()

    def __getitem__(self, index):
        return self.program.emit(f"{self.name}[..., {index[-1]}]")

    def __setitem__(self, index, value):
        self.program.lines.append(
            f"{self.name}[..., {index[-1]}] = {self.program.operand(value)}")


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
    def compilable(self) -> bool:
        """Whether :class:`Program` may evaluate this tree (see
        :func:`_compilable`)."""
        return _compilable(self.ast, self.variables)

    @functools.cached_property
    def _compiled(self):
        """The compiled tree, a program of one expression over the points
        ``p``, or None where only the tree walk is exact."""
        if not self.compilable:
            return None
        program = Program()
        return program.build("p", program.expression(self))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = None
        # a non-finite input can turn into a finite output without a flag
        if self._compiled is not None and np.isfinite(points).all():
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    out = self._compiled(points)
            except FloatingPointError:
                pass
        if out is None or not np.isfinite(out).all():
            env = {name: points[..., k] for k, name in enumerate(self.variables)}
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
