"""The elasticity-condition expression language.

§4.2.1: "The conditions are expressed using a collection of nested
expressions and may involve numerical values, arithmetic and boolean
operations, and values of monitoring elements obtained."

Concrete syntax (as printed in the paper's §6.1.2 manifest)::

    (@uk.ucl.condor.schedd.queuesize /
     (@uk.ucl.condor.exec.instances.size + 1) > 4) &&
    (@uk.ucl.condor.exec.instances.size < 16)

``@name.with.dots`` references the latest monitoring value for a KPI
qualified name. Evaluation follows the OCL semantics of §4.2.2 exactly:

* ``evaluate(ElementSimpleType)`` — a literal evaluates to its value;
* ``evaluate(QualifiedElement)`` — the *latest* monitoring record with a
  matching qualified name, else the KPI's declared default;
* ``evaluate(Expression)`` — recursive; comparison operators yield
  ``1``/``0`` ("if ... then result = 1 else result = 0"), and a rule fires
  when the top-level result is ``> 0``.

Grammar (precedence low → high)::

    or_expr    := and_expr ( '||' and_expr )*
    and_expr   := comparison ( '&&' comparison )*
    comparison := additive ( ('>'|'<'|'>='|'<='|'=='|'!=') additive )?
    additive   := term ( ('+'|'-') term )*
    term       := factor ( ('*'|'/') factor )*
    factor     := NUMBER | KPIREF | WINDOW | '(' or_expr ')'
                | '-' factor | '!' factor
    WINDOW     := ('mean'|'min'|'max'|'count') '(' KPIREF ',' NUMBER ')'

Window operations are the time-series extension §4.2.1 announces ("we are
currently working on the ability to specify a time series and operations
related to that time series (mean, minimum, maximum, etc.)"): they
aggregate a KPI's measurements over the trailing window of the given number
of seconds. Evaluating them requires window-capable bindings (an
:class:`EvaluationContext`); plain latest-value bindings raise. A
condition may read the current time (:data:`BUILTIN_KPIS`) undeclared.
The parser refuses a condition deeper than :data:`MAX_DEPTH` with an
:class:`ExpressionError` naming the position, so every condition it
returns compiles and unparses to text it accepts again.

Evaluation
----------

:meth:`Expression.compile` lowers the tree *once* into a single flat Python
closure by emitting the condition as Python source and evaluating it:
constant subtrees are folded at compile time, arithmetic and comparisons
become native operators, and ``&&``/``||`` become the non-short-circuiting
``&``/``|`` on bools, so every operand is evaluated, left to right, and
every KPI is read exactly as the recursive ``evaluate(Expression)`` of
§4.2.2 reads it. :meth:`Expression.evaluate` — the public hot path — calls
the cached closure, so repeated rule evaluation pays one function call
instead of a tree of virtual dispatches. The §4.2.2 tree-walk itself is the
test oracle ``interpret`` in ``tests/oracles/expressions.py``; the compiled
closure must give its value, or raise its exception, on every tree.
"""

from __future__ import annotations

import abc
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ...monitoring.measurements import validate_qualified_name

__all__ = [
    "ExpressionError",
    "Expression",
    "CompiledExpression",
    "Literal",
    "KPIRef",
    "UnaryOp",
    "BinaryOp",
    "Comparison",
    "BooleanOp",
    "WindowOp",
    "parse_expression",
    "Bindings",
    "EvaluationContext",
    "TIME_NOW",
    "TIME_OF_DAY",
    "BUILTIN_KPIS",
    "MAX_DEPTH",
]


class ExpressionError(Exception):
    """Lexing, parsing or evaluation failure."""


#: Resolver from KPI qualified name → current value (or None if unknown).
Bindings = Callable[[str], Optional[float]]

#: A compiled condition: one flat closure from bindings → numeric result.
CompiledExpression = Callable[[Bindings], float]


#: §4.2.1: "the current time can be introduced as a monitorable parameter
#: if necessary": the time in seconds, and the seconds since midnight. A
#: measurement published under either name shadows it.
TIME_NOW = "system.time.now"
TIME_OF_DAY = "system.time.timeofday"
BUILTIN_KPIS = frozenset((TIME_NOW, TIME_OF_DAY))

#: The deepest tree, and the most parentheses its text nests, the parser
#: accepts: compiled, such a tree nests at most ``2 * MAX_DEPTH - 1``
#: parentheses (Python takes 200); unparsed, ``MAX_DEPTH - 1``.
MAX_DEPTH = 100


class EvaluationContext(abc.ABC):
    """Window-capable bindings: ``context(name)`` resolves a KPI as plain
    bindings do, and ``aggregate`` answers a window operation."""

    __slots__ = ()

    @abc.abstractmethod
    def __call__(self, name: str) -> Optional[float]:
        """The KPI's value now, or ``None`` when nothing resolves it."""

    @abc.abstractmethod
    def aggregate(self, name: str, window_s: float,
                  op: str) -> Optional[float]:
        """The ``op`` aggregate of the KPI's measurements over the trailing
        ``window_s`` seconds, or ``None`` when the window is empty."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

def _never(name: str) -> Optional[float]:
    raise AssertionError("constant subtree consulted bindings")


# -- codegen runtime helpers (bound into the compiled lambda's globals) ------

def _ref_helper(bindings: Bindings, name: str) -> float:
    try:
        value = bindings(name)
    except (TypeError, KeyError) as exc:
        raise ExpressionError(
            f"KPI lookup for {name!r} failed: {exc}"
        ) from exc
    if value is None:
        raise ExpressionError(
            f"no monitoring record for {name!r} and no default"
        )
    return float(value)


def _refd_helper(bindings: Bindings, name: str, default: float) -> float:
    try:
        value = bindings(name)
    except (TypeError, KeyError) as exc:
        raise ExpressionError(
            f"KPI lookup for {name!r} failed: {exc}"
        ) from exc
    if value is None:
        return default
    return float(value)


def _div_helper(a: float, b: float, message: str) -> float:
    if b == 0:
        raise ExpressionError(message)
    return a / b


def _win_helper(bindings: Bindings, op: str, name: str, window_s: float,
                default: Optional[float], text: str) -> float:
    if isinstance(bindings, EvaluationContext):
        value = bindings.aggregate(name, window_s, op)
    else:
        raise ExpressionError(
            f"{text} requires an EvaluationContext, got plain "
            f"latest-value bindings"
        )
    if value is None:
        if op == "count":
            return 0.0
        if default is None:
            raise ExpressionError(f"empty window for {text} and no default")
        return default
    return float(value)


#: Globals for compiled closures. The emitted source contains only float
#: literals, validated qualified names and these helpers — no builtins.
_COMPILE_ENV = {
    "__builtins__": {},
    "_ref": _ref_helper,
    "_refd": _refd_helper,
    "_div": _div_helper,
    "_win": _win_helper,
    "float": float,
}


def _lit(value: float) -> str:
    """A Python source literal reproducing ``value`` exactly."""
    if math.isfinite(value):
        return repr(float(value))
    return f"float({str(float(value))!r})"


def _const_value(expr: "Expression") -> Optional[float]:
    """The subtree's compile-time constant value, or None if it reads KPIs
    or raises (operand specialisation then falls back to emitted code). A
    subtree too deep to compile fails its whole tree."""
    if isinstance(expr, Literal):
        return float(expr.value)
    if expr.kpi_references():
        return None
    fn = expr.compile()
    try:
        return fn(_never)
    except ExpressionError:
        return None


def _emit_folded(expr: "Expression") -> str:
    """Emit a subtree, folding it to a literal when it is an error-free
    constant (a constant that *raises* is emitted as code so it raises
    identically at every evaluation)."""
    value = _const_value(expr)
    if value is not None:
        return _lit(value)
    return expr._emit()


def _emit_folded_bool(expr: "Expression") -> str:
    """Like :func:`_emit_folded` but in boolean context (truth of the
    subtree), sparing the 1.0/0.0 boxing between nested boolean operators."""
    value = _const_value(expr)
    if value is not None:
        return "True" if value > 0 else "False"
    return expr._emit_bool()


class Expression(abc.ABC):
    """Base class for condition-expression AST nodes."""

    #: nodes on the longest path from this node down to a leaf
    depth = 1

    @abc.abstractmethod
    def kpi_references(self) -> set[str]:
        """Every qualified name the expression reads."""

    @abc.abstractmethod
    def unparse(self) -> str:
        """Concrete-syntax text that re-parses to an equivalent AST."""

    @abc.abstractmethod
    def _emit(self) -> str:
        """Python source for this node's value, as a self-contained
        parenthesised expression over the bindings parameter ``b`` and the
        :data:`_COMPILE_ENV` helpers. Every operand is evaluated, left to
        right, as §4.2.2's recursive evaluation does."""

    def _emit_bool(self) -> str:
        """Python source for this node's truth value (``> 0`` per §4.2.2).
        Boolean operators override this to chain natively instead of boxing
        intermediate results to 1.0/0.0."""
        return f"({self._emit()} > 0.0)"

    def compile(self) -> CompiledExpression:
        """Lower the tree to a single flat closure; cached per node.

        The closure is built by emitting the condition as one Python
        expression (KPI lookups through tiny helpers, everything else as
        native operators) and evaluating it in a helpers-only namespace, so
        a call executes zero virtual dispatches.
        """
        try:
            return self._compiled
        except AttributeError:
            pass
        try:
            source = "lambda b: " + self._emit()
            fn = eval(source, _COMPILE_ENV)  # noqa: S307 - see _COMPILE_ENV
            constant = not self.kpi_references()
        except (RecursionError, SyntaxError, MemoryError):
            # A tree built in code skips the parser's depth bound: it can
            # outgrow the stack while emitting, or Python's nesting limit.
            raise ExpressionError(
                f"condition too deep to compile (the parser accepts at most "
                f"{MAX_DEPTH} levels)") from None
        fn.compiled_source = source
        if constant:
            # A tree that reads no KPI gives the same result on every call:
            # run its code once and keep the value, or the error it raises.
            try:
                value = fn(_never)
            except ExpressionError as exc:
                def raise_(bindings: Bindings, _exc=exc) -> float:
                    raise _exc
                fn = raise_
                fn.compiled_source = f"<constant error: {exc}>"
            else:
                fn = lambda bindings, _v=value: _v  # noqa: E731
                fn.compiled_source = f"lambda b: {_lit(value)}"
        object.__setattr__(self, "_compiled", fn)
        return fn

    def evaluate(self, bindings: Bindings) -> float:
        """Numeric result via the cached compiled closure (the hot path)."""
        try:
            fn = self._compiled
        except AttributeError:
            fn = self.compile()
        return fn(bindings)

    def holds(self, bindings: Bindings) -> bool:
        """Rule-firing predicate: ``evaluate(...) > 0`` (§4.2.2)."""
        return self.evaluate(bindings) > 0

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of the subtree (self included)."""
        yield self


@dataclass(frozen=True)
class Literal(Expression):
    value: float

    def kpi_references(self) -> set[str]:
        return set()

    def _emit(self) -> str:
        return _lit(float(self.value))

    def unparse(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(float(self.value))


@dataclass(frozen=True)
class KPIRef(Expression):
    """``@qualified.name`` — latest monitoring value, with optional default.

    The default mirrors OCL's ``else result = qe.default``; rule authors set
    it via the KPI declaration. Evaluating an unbound reference without a
    default is an error — silently assuming 0 could fire a scale-down rule
    before the first measurement ever arrives.

    A bindings callable that itself throws ``TypeError``/``KeyError`` (an
    engine wiring bug, not a rule bug) surfaces as an :class:`ExpressionError`
    naming the qualified KPI, never as a bare builtin exception.
    """

    name: str
    default: Optional[float] = None

    def __post_init__(self) -> None:
        validate_qualified_name(self.name)

    def kpi_references(self) -> set[str]:
        return {self.name}

    def _emit(self) -> str:
        if self.default is None:
            return f"_ref(b, {self.name!r})"
        return f"_refd(b, {self.name!r}, {_lit(float(self.default))})"

    def unparse(self) -> str:
        return f"@{self.name}"


_WINDOW_OPS = ("mean", "min", "max", "count")


@dataclass(frozen=True)
class WindowOp(Expression):
    """``mean(@kpi, seconds)`` etc. — trailing-window KPI aggregation.

    ``count`` yields the number of measurements in the window (0 for an
    empty window); the value aggregates fall back to the KPI default (or
    raise without one), mirroring :class:`KPIRef` semantics.
    """

    op: str
    name: str
    window_s: float
    default: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in _WINDOW_OPS:
            raise ExpressionError(f"unknown window operation {self.op!r}")
        validate_qualified_name(self.name)
        if self.window_s <= 0:
            raise ExpressionError("window must be positive")

    def kpi_references(self) -> set[str]:
        return {self.name}

    def _emit(self) -> str:
        default = ("None" if self.default is None
                   else _lit(float(self.default)))
        return (f"_win(b, {self.op!r}, {self.name!r}, "
                f"{_lit(float(self.window_s))}, {default}, "
                f"{self.unparse()!r})")

    def unparse(self) -> str:
        if float(self.window_s).is_integer():
            w = str(int(self.window_s))
        else:
            w = repr(float(self.window_s))
        return f"{self.op}(@{self.name}, {w})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-' or '!'
    operand: Expression

    def __post_init__(self) -> None:
        if self.op not in ("-", "!"):
            raise ExpressionError(f"unknown unary operator {self.op!r}")
        object.__setattr__(self, "depth", self.operand.depth + 1)

    def kpi_references(self) -> set[str]:
        return self.operand.kpi_references()

    def _emit(self) -> str:
        if self.op == "-":
            return f"(-{_emit_folded(self.operand)})"
        return f"(1.0 if {self._emit_bool()} else 0.0)"

    def _emit_bool(self) -> str:
        if self.op == "-":
            return f"({self._emit()} > 0.0)"
        return f"(not {_emit_folded_bool(self.operand)})"

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.operand.walk()

    def unparse(self) -> str:
        return f"{self.op}({self.operand.unparse()})"


@dataclass(frozen=True)
class _Binary(Expression):
    """An operator over two operands. The subclasses differ only in the
    operators they accept and the code they emit."""

    op: str
    left: Expression
    right: Expression

    #: the operators a subclass accepts, and what its refusal calls them
    OPERATORS = ()
    KIND = ""

    def __post_init__(self) -> None:
        if self.op not in self.OPERATORS:
            raise ExpressionError(f"unknown {self.KIND} operator {self.op!r}")
        object.__setattr__(self, "depth",
                           max(self.left.depth, self.right.depth) + 1)

    def kpi_references(self) -> set[str]:
        return self.left.kpi_references() | self.right.kpi_references()

    def walk(self) -> Iterator[Expression]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


class BinaryOp(_Binary):
    OPERATORS, KIND = ("+", "-", "*", "/"), "arithmetic"

    def _emit(self) -> str:
        left = _emit_folded(self.left)
        if self.op == "/":
            rv = _const_value(self.right)
            if rv is not None and rv != 0:
                return f"({left} / {_lit(rv)})"
            message = f"division by zero in {self.unparse()!r}"
            return f"_div({left}, {_emit_folded(self.right)}, {message!r})"
        return f"({left} {self.op} {_emit_folded(self.right)})"


_COMPARE = (">", "<", ">=", "<=", "==", "!=")


class Comparison(_Binary):
    OPERATORS, KIND = _COMPARE, "comparison"

    def _emit(self) -> str:
        return f"(1.0 if {self._emit_bool()} else 0.0)"

    def _emit_bool(self) -> str:
        left = _emit_folded(self.left)
        right = _emit_folded(self.right)
        return f"({left} {self.op} {right})"


class BooleanOp(_Binary):
    OPERATORS, KIND = ("&&", "||"), "boolean"

    def _emit(self) -> str:
        return f"(1.0 if {self._emit_bool()} else 0.0)"

    def _emit_bool(self) -> str:
        left = _emit_folded_bool(self.left)
        right = _emit_folded_bool(self.right)
        # The non-short-circuiting `&`/`|` on bools: both operands run, so
        # every KPI is read and every error raised as §4.2.2's recursive
        # evaluation reads and raises them, whatever the left side gives.
        word = "&" if self.op == "&&" else "|"
        return f"({left} {word} {right})"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str   # NUMBER, KPIREF, OP, LPAREN, RPAREN, END
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<KPIREF>@[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>&&|\|\||>=|<=|==|!=|[-+*/><!])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        kind = match.lastgroup
        if kind != "WS":
            yield _Token(kind, match.group(), pos)
        pos = match.end()
    yield _Token("END", "", pos)


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str,
                 defaults: Optional[dict[str, float]] = None):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.defaults = defaults or {}
        #: parentheses open around the current token
        self.nesting = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            raise ExpressionError(
                f"expected {text or kind} at position {token.pos}, "
                f"got {token.text!r}"
            )
        return self.advance()

    @staticmethod
    def number(token: _Token) -> float:
        """A NUMBER token's value. One that overflows a float is refused:
        it would unparse as ``inf``, which no longer parses."""
        value = float(token.text)
        if not math.isfinite(value):
            raise ExpressionError(
                f"number {token.text} at position {token.pos} is too large"
            )
        return value

    def node(self, cls: type, token: _Token,
             *operands: Expression) -> Expression:
        """``cls(token.text, *operands)``, refused deeper than MAX_DEPTH."""
        node = cls(token.text, *operands)
        if node.depth > MAX_DEPTH:
            raise ExpressionError(
                f"condition deeper than {MAX_DEPTH} levels at position "
                f"{token.pos}")
        return node

    def parse(self) -> Expression:
        expr = self.or_expr()
        if self.current.kind != "END":
            raise ExpressionError(
                f"trailing input at position {self.current.pos}: "
                f"{self.current.text!r}"
            )
        return expr

    def or_expr(self) -> Expression:
        left = self.and_expr()
        while self.current.kind == "OP" and self.current.text == "||":
            left = self.node(BooleanOp, self.advance(), left, self.and_expr())
        return left

    def and_expr(self) -> Expression:
        # '!' is handled at factor level (tight binding, as in C) so that
        # '!(x) + 1' negates only the parenthesised operand.
        left = self.comparison()
        while self.current.kind == "OP" and self.current.text == "&&":
            left = self.node(BooleanOp, self.advance(), left,
                             self.comparison())
        return left

    def comparison(self) -> Expression:
        left = self.additive()
        if self.current.kind == "OP" and self.current.text in _COMPARE:
            return self.node(Comparison, self.advance(), left,
                             self.additive())
        return left

    def additive(self) -> Expression:
        left = self.term()
        while self.current.kind == "OP" and self.current.text in ("+", "-"):
            left = self.node(BinaryOp, self.advance(), left, self.term())
        return left

    def term(self) -> Expression:
        left = self.factor()
        while self.current.kind == "OP" and self.current.text in ("*", "/"):
            left = self.node(BinaryOp, self.advance(), left, self.factor())
        return left

    def factor(self) -> Expression:
        # A loop, not recursion: a run of unary operators meets the depth
        # bound before the stack's. '!' is a factor so that unparse()
        # output of ASTs nesting it inside arithmetic always reparses.
        unary = []
        while self.current.kind == "OP" and self.current.text in ("-", "!"):
            unary.append(self.advance())
        expr = self.operand()
        for token in reversed(unary):
            expr = self.node(UnaryOp, token, expr)
        return expr

    def operand(self) -> Expression:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            return Literal(self.number(token))
        if token.kind == "KPIREF":
            self.advance()
            name = token.text[1:]  # strip '@'
            return KPIRef(name, default=self.defaults.get(name))
        if token.kind == "IDENT":
            if token.text not in _WINDOW_OPS:
                raise ExpressionError(
                    f"unknown function {token.text!r} at position {token.pos}"
                )
            self.advance()
            self.expect("LPAREN")
            ref = self.expect("KPIREF")
            name = ref.text[1:]
            self.expect("COMMA")
            window_s = self.number(self.expect("NUMBER"))
            self.expect("RPAREN")
            return WindowOp(token.text, name, window_s,
                            default=self.defaults.get(name))
        if token.kind == "LPAREN":
            self.nesting += 1   # bounded before the descent can overflow
            if self.nesting > MAX_DEPTH:
                raise ExpressionError(
                    f"more than {MAX_DEPTH} nested parentheses at position "
                    f"{token.pos}")
            self.advance()
            expr = self.or_expr()
            self.nesting -= 1
            self.expect("RPAREN")
            return expr
        raise ExpressionError(
            f"unexpected token {token.text!r} at position {token.pos}"
        )


def parse_expression(text: str,
                     defaults: Optional[dict[str, float]] = None
                     ) -> Expression:
    """Parse concrete condition syntax into an AST.

    ``defaults`` maps KPI qualified names to the fallback values their
    declarations carry; references pick them up at parse time.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text, defaults).parse()
