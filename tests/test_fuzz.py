"""Parser and JSON-decoder fuzzing: any input gives a value or an MvdlError."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl.algebra import build_builtin
from mvdl.errors import MvdlError
from mvdl.functors import Kind
from mvdl.jsonio import (
    algebra_from_json,
    algebra_to_json,
    config_from_json,
    formula_from_json,
    model_from_json,
    rule_from_json,
)
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


# JSON shaped like the declarations the loaders read: the right field names,
# each holding either a plausible value or junk
_junk = st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=4) | st.floats()
_json = st.recursive(
    _junk,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _fields(required=(), **fields):
    """Objects drawing each named field from its strategy or from junk; a
    field may be missing unless it is required, and a required field is
    never junk, so that draws get past it."""
    return st.fixed_dictionaries(
        {k: fields[k] for k in required},
        optional={k: v | _json for k, v in fields.items() if k not in required},
    )


def _objects(required, **fields):
    return _json | _fields(**fields) | _fields(required, **fields)


_B2 = build_builtin("boolean")
_L2 = build_builtin("lukasiewicz", 2)
_ELEMENT = st.integers(-1, 3)
_ALGEBRA_REF = st.sampled_from(["B2", "L2", "G3", "L", "L²", "L0", "X2", "b2"])
_TABLE = st.lists(st.lists(_ELEMENT, min_size=1, max_size=3), min_size=1, max_size=3)
_B2_JSON = algebra_to_json(_B2)
algebras = _ALGEBRA_REF | _json | st.builds(
    lambda base, over: {**base, **over},
    st.just(_B2_JSON),
    _fields(
        m=st.integers(0, 3),
        meet=_TABLE,
        join=_TABLE,
        tensor=_TABLE,
        impl=_TABLE,
        labels=st.lists(st.text(max_size=2), max_size=3),
        extras=st.dictionaries(st.text(max_size=2), st.lists(_ELEMENT, max_size=3), max_size=2),
        constants=st.dictionaries(st.text(max_size=2), _ELEMENT, max_size=2),
        name=st.text(max_size=3),
    ),
)
_VARIANTS = st.sampled_from(
    ["box-crisp", "diamond-labelled", "threshold", "eval", "instantial", "union", "join-pw",
     "kleisli", "star", "dual", "test-p", "angelic", "labelled-unit", "nope"]
)
_ENTRY = _objects(
    ["variant"],
    variant=_VARIANTS, arity=st.integers(-1, 3), param=_ELEMENT,
    subset=st.lists(_ELEMENT, max_size=3),
)
_KINDS_JSON = st.sampled_from([k.value for k in Kind] + ["nope"])
configs = _objects(
    ["kind"],
    kind=_KINDS_JSON,
    truth_algebra=_ALGEBRA_REF,
    liftings=st.dictionaries(st.sampled_from(["box", "dia", "w"]), _ENTRY, max_size=2),
    ops=st.dictionaries(st.sampled_from([";", "+", "^d"]), _ENTRY, max_size=2),
    tests=st.dictionaries(st.sampled_from(["t", "u"]), _ENTRY, max_size=2),
    props=st.lists(st.sampled_from(["p", "q"]), max_size=2),
    atoms=st.lists(st.sampled_from(["a", "b"]), max_size=2),
    box=st.sampled_from(["box", "dia"]),
    diamond=st.sampled_from(["box", "dia"]),
    name=st.text(max_size=3),
)
_ROW = st.lists(st.integers(0, 3) | st.lists(st.integers(0, 3), max_size=4), max_size=3)
models = _objects(
    ["n", "algebra", "atoms"],
    n=st.integers(-1, 3),
    algebra=_ALGEBRA_REF,
    kind=_KINDS_JSON,
    config=configs,
    atoms=st.dictionaries(st.sampled_from(["a", "b"]), _ROW, max_size=2),
    valuation=st.dictionaries(st.sampled_from(["p", "q"]), _ROW, max_size=2),
)
rules = _objects(
    ["template", "lifting"],
    op=st.sampled_from([";", "+", "~", "x"]),
    test=st.sampled_from(["t", "x"]),
    lifting=st.sampled_from(["box", "dia", "x"]),
    template=st.sampled_from(["<1:box> w1", "<1:box><2:box> w1", "w1 -> w2", "<3:dia> w1", "(("]),
)


def _value_or_mvdl_error(load, data):
    try:
        load(data)
    except MvdlError:
        pass


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebras)
def test_algebra_from_json_gives_a_value_or_an_mvdl_error(data):
    _value_or_mvdl_error(algebra_from_json, data)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs, st.sampled_from([_B2, _L2]))
def test_config_from_json_gives_a_value_or_an_mvdl_error(data, alg):
    _value_or_mvdl_error(lambda d: config_from_json(d, alg), data)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models)
def test_model_from_json_gives_a_value_or_an_mvdl_error(data):
    _value_or_mvdl_error(model_from_json, data)


_LABELLED = make_preset("pdl-labelled", _L2)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules)
def test_rule_from_json_gives_a_value_or_an_mvdl_error(data):
    _value_or_mvdl_error(lambda d: rule_from_json(d, _LABELLED), data)
