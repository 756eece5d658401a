"""Parser and JSON-decoder fuzzing: any input gives a value or an MvdlError."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl.algebra import build_builtin
from mvdl.errors import MvdlError
from mvdl.jsonio import formula_from_json
from mvdl.presets import PRESET_NAMES, make_preset
from mvdl.syntax import parse

_L2X = build_builtin("lukasiewicz", 2, chi=(2,), constants=(1,))
SIGNATURES = [
    make_preset(name, build_builtin("boolean") if name == "instantial" else _L2X).signature
    for name in PRESET_NAMES
]

# text drawn mostly from the concrete syntax, so that deep parses happen
_TOKENS = [
    "p", "q", "a", "b", "w1", "w0", "w12", "0", "1", "2", "07", "chi_2", "c_1", "box",
    "dia", "dia_1_2", "inst2", "t", "?", "!", "(", ")", "[", "]", "<", ">", ",", ":",
    ";", "+", "&", "*", "~", "^d", "->", "/\\", "\\/", " ",
]
texts = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts)
def test_parse_gives_a_value_or_an_mvdl_error(text):
    for sig in SIGNATURES:
        for category in ("formula", "action", "template"):
            try:
                parse(text, sig, category)
            except MvdlError:
                pass


@pytest.mark.parametrize(
    "text",
    ["<²:dia> w1", "<1:dia> w²", "<" + "9" * 5000 + ":dia> w1", "(" * 5000 + "w1" + ")" * 5000],
)
def test_parse_rejects_what_int_and_the_stack_cannot_take(text):
    # these used to escape as ValueError (int('²'), a numeral beyond
    # int()'s digit limit) or RecursionError
    for category in ("formula", "action", "template"):
        with pytest.raises(MvdlError):
            parse(text, SIGNATURES[1], category)


_FIELDS = ["kind", "name", "symbol", "args", "lifting", "action", "op", "test", "arg"]
_KINDS = ["prop", "conn", "modal", "atomic", "op", "test", "x"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(_KINDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(json_values)
def test_formula_from_json_gives_a_value_or_an_mvdl_error(data):
    try:
        formula_from_json(data)
    except MvdlError:
        pass

