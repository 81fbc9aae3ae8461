"""Tests for the expression compile step (AST → flat closure).

The compiled path must be observationally identical to the §4.2.2
tree-walk (the oracle :func:`tests.oracles.expressions.interpret`): same
values, same errors, same evaluation order — compilation is allowed to be
faster, never different. CI's extended Hypothesis step raises the
property's example budget through ``SOLVER_FUZZ_EXAMPLES``.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.manifest.expressions import (
    BinaryOp,
    BooleanOp,
    Comparison,
    ExpressionError,
    KPIRef,
    Literal,
    UnaryOp,
    parse_expression,
)
from tests.oracles.expressions import interpret


def bind(**values):
    table = {k.replace("__", "."): v for k, v in values.items()}
    return lambda name: table.get(name)


# ---------------------------------------------------------------------------
# Compiled vs interpreted equivalence
# ---------------------------------------------------------------------------

_numbers = st.floats(min_value=0.1, max_value=1e6,
                     allow_nan=False, allow_infinity=False)

# KPIRefs deliberately include undefaulted names and divisions so random
# trees exercise the error paths, not just the happy path.
_refs = st.one_of(
    st.sampled_from(["a.b", "c.d"]).map(lambda n: KPIRef(n, default=1.0)),
    st.sampled_from(["miss.ing", "e.f.g"]).map(lambda n: KPIRef(n)),
)


def _exprs(depth=3):
    base = st.one_of(_numbers.map(Literal), _refs)
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(
            lambda t: BinaryOp(*t)),
        st.tuples(st.sampled_from([">", "<", ">=", "<=", "==", "!="]),
                  sub, sub).map(lambda t: Comparison(*t)),
        st.tuples(st.sampled_from(["&&", "||"]), sub, sub).map(
            lambda t: BooleanOp(*t)),
        sub.map(lambda e: UnaryOp("!", e)),
        sub.map(lambda e: UnaryOp("-", e)),
    )


def _outcome(fn, bindings):
    try:
        return ("value", fn(bindings))
    except (ExpressionError, ValueError, TypeError) as exc:
        return ("error", type(exc), str(exc))


@given(expr=_exprs())
@example(expr=parse_expression("(@a.b > 1) && (@c.d < 5)",
                               defaults={"a.b": 0, "c.d": 0}))
@settings(max_examples=int(os.environ.get("SOLVER_FUZZ_EXAMPLES", "300")))
def test_compiled_matches_interpreted(expr):
    """Value-or-error equivalence over random trees and partial bindings."""
    for bindings in (
        bind(a__b=2.0, c__d=3.0, e__f__g=5.0, miss__ing=0.5),
        bind(a__b=2.0, c__d=0.0),   # undefaulted refs unbound → errors
        bind(),                      # only defaults resolvable
        # a defaulted KPI whose value float() refuses: every operand that
        # reads it must raise, whatever the other side of && or || gives
        bind(a__b=0.0, c__d="busy", e__f__g=5.0, miss__ing=0.5),
    ):
        interpreted = _outcome(lambda b: interpret(expr, b), bindings)
        compiled = _outcome(expr.evaluate, bindings)
        if interpreted[0] == "value":
            assert compiled[0] == "value"
            assert compiled[1] == pytest.approx(interpreted[1], nan_ok=True)
        else:
            assert compiled == interpreted


def test_compile_is_cached():
    expr = parse_expression("@a.b > 4", defaults={"a.b": 0})
    assert expr.compile() is expr.compile()
    assert expr.evaluate(bind(a__b=9)) == 1.0


def test_constant_folding():
    fn = parse_expression("2 + 3 * 4").compile()
    assert fn.compiled_source == "lambda b: 14.0"
    assert fn(bind()) == 14.0


def test_constant_error_still_raises_every_call():
    expr = parse_expression("1 / (2 - 2)")
    for _ in range(2):
        with pytest.raises(ExpressionError, match="division by zero"):
            expr.evaluate(bind())


def test_partial_folding_inside_live_tree():
    expr = parse_expression("@a.b + (2 + 3)", defaults={"a.b": 0})
    assert "5.0" in expr.compile().compiled_source
    assert expr.evaluate(bind(a__b=1)) == 6.0


def test_short_circuit_only_when_operand_total():
    # Never a short-circuit: `&&`/`||` force both operands through `&`/`|`
    # whether or not the right side has defaults, because a defaulted KPI
    # can still hold a value float() refuses.
    for defaults in ({"a.b": 0, "c.d": 0}, {"a.b": 0}):
        for op, word in (("&&", " & "), ("||", " | ")):
            expr = parse_expression(f"(@a.b > 1) {op} (@c.d < 5)",
                                    defaults=defaults)
            source = expr.compile().compiled_source
            assert word in source
            assert " and " not in source and " or " not in source


def test_compiled_no_short_circuit_surfaces_missing_kpis():
    expr = parse_expression("(0 > 1) && (@a.b > 0)")
    with pytest.raises(ExpressionError, match="no monitoring record"):
        expr.evaluate(bind())
    expr = parse_expression("(2 > 1) || (@a.b > 0)")
    with pytest.raises(ExpressionError, match="no monitoring record"):
        expr.evaluate(bind())


def test_division_by_zero_same_message_both_paths():
    expr = parse_expression("@a.b / @c.d", defaults={"a.b": 1, "c.d": 0})
    bindings = bind()
    with pytest.raises(ExpressionError) as interpreted:
        interpret(expr, bindings)
    with pytest.raises(ExpressionError) as compiled:
        expr.evaluate(bindings)
    assert str(compiled.value) == str(interpreted.value)


def test_constant_divisor_is_inlined():
    fn = parse_expression("@a.b / 4", defaults={"a.b": 0}).compile()
    assert "_div" not in fn.compiled_source
    assert fn(bind(a__b=10)) == 2.5


# ---------------------------------------------------------------------------
# Well-typed errors from misbehaving bindings (never bare TypeError/KeyError)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("evaluate", [
    lambda e, b: interpret(e, b),
    lambda e, b: e.evaluate(b),
], ids=["interpreted", "compiled"])
def test_raising_bindings_become_expression_error(evaluate):
    expr = KPIRef("a.b", default=1.0)

    def key_error(name):
        raise KeyError(name)

    with pytest.raises(ExpressionError, match="a.b"):
        evaluate(expr, key_error)
    with pytest.raises(ExpressionError, match="a.b"):
        evaluate(expr, None)  # not even callable → TypeError inside


def test_walk_visits_every_node():
    expr = parse_expression("(@a.b + 1) > 2 && !(@c.d < 5)",
                            defaults={"a.b": 0, "c.d": 0})
    names = [type(node).__name__ for node in expr.walk()]
    assert names.count("KPIRef") == 2
    assert "BooleanOp" in names and "UnaryOp" in names
