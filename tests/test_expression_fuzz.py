"""Random and deep input to the condition language: only typed errors
escape.

Hypothesis draws condition text three ways: nesting (parentheses and
unary operators, up to 1,000 levels), chains of binary operators (up to
1,000 terms) and random token soup. Each text goes through
``parse_expression``, ``compile()`` and both manifest front ends. The
parser may only raise :class:`ExpressionError`; HUTN only
:class:`HutnSyntaxError` or a condition's :class:`ExpressionError`;
OVF-XML only :class:`ManifestSyntaxError` or the same. Whatever parses
compiles, and unparses to text that parses to the same tree. Tier-1 runs
a small budget; CI's solver-fuzz step runs 2,000 examples through
``SOLVER_FUZZ_EXAMPLES``.
"""

import os
from xml.sax.saxutils import escape

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest.builder import ManifestBuilder
from repro.core.manifest.expressions import ExpressionError, parse_expression
from repro.core.manifest.hutn import (
    HutnSyntaxError,
    manifest_from_text,
    manifest_to_text,
)
from repro.core.manifest.ovf_xml import (
    ManifestSyntaxError,
    manifest_from_xml,
    manifest_to_xml,
)

EXAMPLES = int(os.environ.get("SOLVER_FUZZ_EXAMPLES", "100"))
DEFAULTS = {"a.b": 0.0}

ATOMS = ("1", "0", "2.5", "1e308", "@a.b", "@x.load", "mean(@a.b, 3)",
         "count(@x.load, 0.5)")
#: one nesting level each; the number of '(' is the closing count
OPENERS = ("(", "-", "!", "-(", "!(", "((", "(-", "(!")
OPERATORS = (" + ", " - ", " * ", " / ", " && ", " || ", " > ", " <= ",
             " == ")
TOKENS = ATOMS + OPENERS + OPERATORS + (
    ")", ",", "@", "@a", "mean", "mean(", "max(@a.b", "1e999", "x", " ",
    "&", "|", "=", ".", "\t")


@st.composite
def nested(draw):
    depth = draw(st.integers(0, 1000))
    opener = draw(st.sampled_from(OPENERS))
    atom = draw(st.sampled_from(ATOMS))
    closers = ")" * (opener.count("(") * depth)
    return opener * depth + atom + closers + draw(
        st.sampled_from(("", " > 0", " && @a.b")))


@st.composite
def chained(draw):
    terms = draw(st.integers(1, 1000))
    operator = draw(st.sampled_from(OPERATORS))
    atom = draw(st.sampled_from(ATOMS))
    return operator.join([atom] * terms) + draw(
        st.sampled_from(("", " > 0", " || (1 > 0)")))


soup = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)
CONDITIONS = st.one_of(nested(), chained(), soup)


def template():
    b = ManifestBuilder("fuzz")
    b.component("app", image_mb=64, initial=1, minimum=1, maximum=3)
    b.kpi("app", "app", "a.b", default=0)
    b.rule("up", "@a.b > 7", "deployVM(app)")
    return manifest_to_text(b.build()), manifest_to_xml(b.build())


HUTN, XML = template()


@given(text=CONDITIONS)
@settings(max_examples=EXAMPLES, deadline=None)
def test_only_typed_errors_escape(text):
    try:
        expr = parse_expression(text, defaults=DEFAULTS)
    except ExpressionError:
        pass
    else:
        expr.compile()
        assert parse_expression(expr.unparse(), defaults=DEFAULTS) == expr
    try:
        manifest_from_text(HUTN.replace("(@a.b > 7)", text))
    except (HutnSyntaxError, ExpressionError):
        pass
    try:
        manifest_from_xml(XML.replace("(@a.b &gt; 7)", escape(text)))
    except (ManifestSyntaxError, ExpressionError):
        pass
