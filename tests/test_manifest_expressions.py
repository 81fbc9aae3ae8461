"""Tests for the elasticity condition expression language."""

import pytest
from hypothesis import given, settings
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


def bind(**values):
    """Bindings from keyword args with underscores for dots."""
    table = {k.replace("__", "."): v for k, v in values.items()}
    return lambda name: table.get(name)


# ---------------------------------------------------------------------------
# Evaluation semantics
# ---------------------------------------------------------------------------

def test_literal_and_arithmetic():
    expr = parse_expression("2 + 3 * 4")
    assert expr.evaluate(bind()) == 14


def test_precedence_and_parentheses():
    assert parse_expression("(2 + 3) * 4").evaluate(bind()) == 20
    assert parse_expression("10 - 4 - 3").evaluate(bind()) == 3  # left assoc
    assert parse_expression("12 / 2 / 3").evaluate(bind()) == 2


def test_unary_minus():
    assert parse_expression("-5 + 2").evaluate(bind()) == -3
    assert parse_expression("--5").evaluate(bind()) == 5


def test_comparison_yields_one_or_zero():
    """OCL semantics: 'then result = 1 else result = 0'."""
    assert parse_expression("5 > 4").evaluate(bind()) == 1.0
    assert parse_expression("5 < 4").evaluate(bind()) == 0.0
    assert parse_expression("5 >= 5").evaluate(bind()) == 1.0
    assert parse_expression("5 <= 4").evaluate(bind()) == 0.0
    assert parse_expression("5 == 5").evaluate(bind()) == 1.0
    assert parse_expression("5 != 5").evaluate(bind()) == 0.0


def test_boolean_operators():
    assert parse_expression("(1 > 0) && (2 > 1)").evaluate(bind()) == 1.0
    assert parse_expression("(1 > 0) && (2 < 1)").evaluate(bind()) == 0.0
    assert parse_expression("(1 < 0) || (2 > 1)").evaluate(bind()) == 1.0
    assert parse_expression("!(1 > 0)").evaluate(bind()) == 0.0
    assert parse_expression("!(1 < 0)").evaluate(bind()) == 1.0


def test_kpi_reference_reads_bindings():
    expr = parse_expression("@uk.ucl.condor.schedd.queuesize > 4")
    assert expr.evaluate(bind(uk__ucl__condor__schedd__queuesize=10)) == 1.0
    assert expr.evaluate(bind(uk__ucl__condor__schedd__queuesize=2)) == 0.0


def test_kpi_reference_default_fallback():
    expr = parse_expression("@a.b > 0", defaults={"a.b": 5})
    assert expr.evaluate(bind()) == 1.0  # no record → default 5


def test_kpi_reference_missing_without_default_raises():
    expr = parse_expression("@a.b > 0")
    with pytest.raises(ExpressionError, match="no monitoring record"):
        expr.evaluate(bind())


def test_division_by_zero_raises():
    expr = parse_expression("1 / @a.b", defaults={"a.b": 0})
    with pytest.raises(ExpressionError, match="division by zero"):
        expr.evaluate(bind())


def test_holds_predicate():
    assert parse_expression("1 > 0").holds(bind())
    assert not parse_expression("0 > 1").holds(bind())
    # Numeric top-level expressions fire when positive.
    assert parse_expression("3 - 1").holds(bind())
    assert not parse_expression("1 - 3").holds(bind())


def test_paper_rule_expression():
    """The exact §6.1.2 scale-up condition."""
    text = ("(@uk.ucl.condor.schedd.queuesize / "
            "(@uk.ucl.condor.exec.instances.size + 1) > 4) && "
            "(@uk.ucl.condor.exec.instances.size < 16)")
    expr = parse_expression(text)
    assert expr.kpi_references() == {
        "uk.ucl.condor.schedd.queuesize",
        "uk.ucl.condor.exec.instances.size",
    }
    # 200 queued, 2 instances → 200/3 > 4 and 2 < 16: fire.
    assert expr.holds(bind(uk__ucl__condor__schedd__queuesize=200,
                           uk__ucl__condor__exec__instances__size=2))
    # 200 queued but already 16 instances: hold off.
    assert not expr.holds(bind(uk__ucl__condor__schedd__queuesize=200,
                               uk__ucl__condor__exec__instances__size=16))
    # 8 queued, 2 instances → 8/3 < 4: hold off.
    assert not expr.holds(bind(uk__ucl__condor__schedd__queuesize=8,
                               uk__ucl__condor__exec__instances__size=2))


def test_no_short_circuit_surfaces_missing_kpis():
    expr = parse_expression("(0 > 1) && (@a.b > 0)")
    with pytest.raises(ExpressionError):
        expr.evaluate(bind())


# ---------------------------------------------------------------------------
# Parsing errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "", "   ", "1 +", "(1 > 0", "1 > 0)", "@singleword > 1", "1 ** 2",
    "&& 1", "1 2", "@ a.b", "foo > 1",
])
def test_malformed_expressions_rejected(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)


@pytest.mark.parametrize("text, literal, position", [
    ("@q.size > 1e999", "1e999", 10),
    ("mean(@q.size, 1e999)", "1e999", 14),
])
def test_overflowing_number_rejected(text, literal, position):
    """A literal that overflows a float would unparse as ``inf``, which
    does not parse: it is refused where it is read."""
    with pytest.raises(ExpressionError,
                       match=f"number {literal} at position {position}"):
        parse_expression(text)


def test_ast_node_validation():
    with pytest.raises(ExpressionError):
        UnaryOp("~", Literal(1))
    with pytest.raises(ExpressionError):
        BinaryOp("%", Literal(1), Literal(2))
    with pytest.raises(ExpressionError):
        Comparison("~=", Literal(1), Literal(2))
    with pytest.raises(ExpressionError):
        BooleanOp("XOR", Literal(1), Literal(2))
    with pytest.raises(ValueError):
        KPIRef("notdotted")


# ---------------------------------------------------------------------------
# Unparse round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1 + 2 * 3",
    "(@a.b / (@c.d + 1) > 4) && (@c.d < 16)",
    "!(@a.b == 0) || (@a.b >= 10)",
    "-3.5 + @x.y",
])
def test_unparse_round_trip(text):
    expr = parse_expression(text, defaults={"a.b": 0, "c.d": 0, "x.y": 0})
    reparsed = parse_expression(expr.unparse(),
                                defaults={"a.b": 0, "c.d": 0, "x.y": 0})
    bindings = bind(a__b=7, c__d=3, x__y=1.5)
    assert expr.evaluate(bindings) == reparsed.evaluate(bindings)


# ---------------------------------------------------------------------------
# Property-based: random expression trees survive unparse→parse→evaluate
# ---------------------------------------------------------------------------

_numbers = st.floats(min_value=0.1, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def _exprs(depth=3):
    base = st.one_of(
        _numbers.map(Literal),
        st.sampled_from(["a.b", "c.d", "e.f.g"]).map(
            lambda n: KPIRef(n, default=1.0)),
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: BinaryOp(*t)),
        st.tuples(st.sampled_from([">", "<", ">=", "<=", "==", "!="]),
                  sub, sub).map(lambda t: Comparison(*t)),
        st.tuples(st.sampled_from(["&&", "||"]), sub, sub).map(
            lambda t: BooleanOp(*t)),
        sub.map(lambda e: UnaryOp("!", e)),
    )


@given(expr=_exprs())
@settings(max_examples=200)
def test_unparse_parse_evaluate_identity(expr):
    bindings = bind(a__b=2.0, c__d=3.0, e__f__g=5.0)
    reparsed = parse_expression(
        expr.unparse(), defaults={"a.b": 1.0, "c.d": 1.0, "e.f.g": 1.0})
    assert reparsed.evaluate(bindings) == pytest.approx(
        expr.evaluate(bindings))
    assert reparsed.kpi_references() == expr.kpi_references()
