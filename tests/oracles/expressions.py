"""The §4.2.2 tree-walk: the oracle for compiled conditions.

:func:`interpret` is OCL's recursive ``evaluate(Expression)`` read
literally: one call per node, every operand evaluated, left to right,
comparisons and boolean operators yielding 1.0 / 0.0. The shipped
evaluator, :meth:`~repro.core.manifest.expressions.Expression.compile`,
must give its value or raise its exception, with the same message, on
every tree and binding (``tests/test_expression_compile.py``), and the
full-pass rule engine (:mod:`tests.oracles.rules`) evaluates its
conditions with it.
"""

from __future__ import annotations

import operator

from repro.core.manifest.expressions import (
    BinaryOp,
    Bindings,
    BooleanOp,
    Comparison,
    EvaluationContext,
    Expression,
    ExpressionError,
    KPIRef,
    Literal,
    UnaryOp,
    WindowOp,
)

__all__ = ["interpret"]

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_COMPARE = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


def interpret(expr: Expression, bindings: Bindings) -> float:
    """Evaluate ``expr`` by walking it; booleans are 1.0 / 0.0."""
    if isinstance(expr, Literal):
        return float(expr.value)
    if isinstance(expr, KPIRef):
        try:
            value = bindings(expr.name)
        except (TypeError, KeyError) as exc:
            raise ExpressionError(
                f"KPI lookup for {expr.name!r} failed: {exc}"
            ) from exc
        if value is None:
            if expr.default is None:
                raise ExpressionError(
                    f"no monitoring record for {expr.name!r} and no default"
                )
            return float(expr.default)
        return float(value)
    if isinstance(expr, WindowOp):
        if not isinstance(bindings, EvaluationContext):
            raise ExpressionError(
                f"{expr.unparse()} requires an EvaluationContext, got plain "
                f"latest-value bindings"
            )
        value = bindings.aggregate(expr.name, expr.window_s, expr.op)
        if value is None:
            if expr.op == "count":
                return 0.0
            if expr.default is None:
                raise ExpressionError(
                    f"empty window for {expr.unparse()} and no default"
                )
            return float(expr.default)
        return float(value)
    if isinstance(expr, UnaryOp):
        value = interpret(expr.operand, bindings)
        if expr.op == "-":
            return -value
        return 0.0 if value > 0 else 1.0
    if isinstance(expr, BinaryOp):
        a = interpret(expr.left, bindings)
        b = interpret(expr.right, bindings)
        if expr.op == "/":
            if b == 0:
                raise ExpressionError(
                    f"division by zero in {expr.unparse()!r}"
                )
            return a / b
        return _ARITH[expr.op](a, b)
    if isinstance(expr, Comparison):
        a = interpret(expr.left, bindings)
        b = interpret(expr.right, bindings)
        return 1.0 if _COMPARE[expr.op](a, b) else 0.0
    if isinstance(expr, BooleanOp):
        # No short-circuit: both sides' KPI lookups must be resolvable,
        # which surfaces missing-default configuration errors
        # deterministically rather than only when the left side happens to
        # be false.
        a = interpret(expr.left, bindings) > 0
        b = interpret(expr.right, bindings) > 0
        result = (a and b) if expr.op == "&&" else (a or b)
        return 1.0 if result else 0.0
    raise TypeError(f"not an expression node: {expr!r}")
