"""Serialization round trips for algebras, models and rules."""

import json
import random

import pytest

from mvdl.errors import InvalidParameter
from mvdl.functors import Kind
from mvdl.jsonio import (
    algebra_from_json,
    algebra_to_json,
    dumps,
    formula_from_json,
    formula_to_json,
    fvalue_from_json,
    fvalue_to_json,
    model_from_json,
    model_to_json,
    rule_from_json,
    rule_to_json,
)
from mvdl.algebra import build_builtin
from mvdl.presets import make_preset
from mvdl.reduction import builtin_rules
from mvdl.semantics import eval_formula
from mvdl.syntax import parse

from conftest import random_model


class TestAlgebraJson:
    def test_roundtrip(self, L3):
        data = algebra_to_json(L3)
        back = algebra_from_json(data)
        assert back == L3

    def test_roundtrip_with_extras(self):
        alg = build_builtin("lukasiewicz", 2, chi=(2,), constants=(1,))
        back = algebra_from_json(json.loads(dumps(algebra_to_json(alg))))
        assert back.extras == alg.extras
        assert back.constants == alg.constants

    def test_name_reference(self):
        assert algebra_from_json("G3").m == 4

    def test_invalid_rejected(self, B2):
        data = algebra_to_json(B2)
        data["tensor"] = [[0, 0], [0, 0]]  # unit law broken
        with pytest.raises(InvalidParameter):
            algebra_from_json(data)

    def test_missing_impl_is_derived(self, L2):
        data = algebra_to_json(L2)
        del data["impl"]
        assert algebra_from_json(data).impl_table == L2.impl_table


class TestFValueJson:
    @pytest.mark.parametrize(
        "kind,value",
        [
            (Kind.POWERSET, 0b101),
            (Kind.APOWERSET, (0, 2, 1)),
            (Kind.A_NEIGHBOURHOOD, (0, 1, 2)),
            (Kind.DOUBLE_POWERSET, frozenset({0b01, 0b11})),
        ],
    )
    def test_roundtrip(self, kind, value):
        encoded = json.loads(dumps(fvalue_to_json(kind, value)))
        assert fvalue_from_json(kind, encoded) == value


class TestModelJson:
    @pytest.mark.parametrize(
        "preset_name,alg_name",
        [
            ("pdl-crisp", "B2"),
            ("pdl-labelled", "L2"),
            ("pdl-threshold", "L2"),
            ("game", "L2"),
            ("instantial", "B2"),
        ],
    )
    def test_roundtrip_preserves_semantics(self, preset_name, alg_name):
        from mvdl.algebra import algebra_by_name

        config = make_preset(preset_name, algebra_by_name(alg_name))
        rng = random.Random(7)
        model = random_model(rng, config, 2)
        data = json.loads(dumps(model_to_json(model)))
        back = model_from_json(data)
        assert back.atoms == model.atoms
        assert back.valuation == model.valuation
        text = "<a> p" if config.signature.diamond else "<a:dia_1> p"
        phi = parse(text, config.signature)
        assert eval_formula(back, phi) == eval_formula(model, phi)

    def test_kind_mismatch_rejected(self, crisp_b2):
        model = random_model(random.Random(1), crisp_b2, 2)
        data = model_to_json(model)
        data["kind"] = "apowerset"
        with pytest.raises(InvalidParameter):
            model_from_json(data, crisp_b2)


class TestCustomConfigJson:
    # a plain (non-monotone) neighbourhood logic: no preset binds this kind
    CONFIG = {
        "name": "plain-neighbourhood",
        "kind": "aneighbourhood",
        "liftings": {"dia": {"variant": "eval"}},
        "ops": {";": {"variant": "kleisli"}, "+": {"variant": "join-pw"},
                "^d": {"variant": "dual"}},
        "tests": {"t": {"variant": "test-p", "subset": [2]}},
        "diamond": "dia",
    }

    def test_custom_config_model_roundtrip(self, L2):
        from mvdl.jsonio import config_from_json
        from mvdl.functors import functor_ops, Kind

        from mvdl.semantics import Model

        config = config_from_json(self.CONFIG, L2)
        fops = functor_ops(Kind.A_NEIGHBOURHOOD, 1, L2)
        value = fops.drawer(random.Random(3))
        model = Model(
            1,
            config,
            atoms={"a": (value(),), "b": (value(),)},
            valuation={"p": (1,)},
        )
        data = json.loads(dumps(model_to_json(model)))
        assert "config" in data and data["config"]["kind"] == "aneighbourhood"
        back = model_from_json(data)
        phi = parse("<a;b^d> p \\/ <?t(p)> p", back.config.signature)
        assert eval_formula(back, phi) == eval_formula(model, phi)

    def test_custom_config_rules_verify(self, L2):
        # the Kleisli axiom holds on the plain neighbourhood functor too
        from mvdl.jsonio import config_from_json
        from mvdl.reduction import ReductionRule
        from mvdl.harness import verify_reduction_rule
        from mvdl.syntax import Modal, Template, Var

        config = config_from_json(self.CONFIG, L2)
        rule = ReductionRule(
            "op", ";", "dia",
            Template(2, 1, Modal("dia", 1, (Modal("dia", 2, (Var(1),)),))),
        )
        verdict = verify_reduction_rule(rule, config, n=1)
        assert verdict.status == "holds"


_ATOM_A = {"kind": "atomic", "name": "a"}
_PROP_P = {"kind": "prop", "name": "p"}


class TestFormulaJson:
    def test_roundtrip_fuzzed(self, labelled_l2):
        rng = random.Random(19)
        from conftest import random_action, random_formula

        for _ in range(300):
            phi = random_formula(rng, labelled_l2, depth=4)
            data = json.loads(dumps(formula_to_json(phi)))
            assert formula_from_json(data) == phi
        for _ in range(100):
            act = random_action(rng, labelled_l2, depth=3)
            assert formula_from_json(formula_to_json(act)) == act

    @pytest.mark.parametrize(
        "data, field",
        [
            ({}, "'kind'"),
            ([], "expected a JSON object"),
            ({"kind": "prop"}, "'name'"),
            ({"kind": "conn", "symbol": "x"}, "'args'"),
            ({"kind": "conn", "symbol": "x", "args": 3}, "'args'"),
            ({"kind": "modal", "lifting": "dia", "args": []}, "'action'"),
            ({"kind": "test", "test": "t", "arg": {"kind": "prop", "name": 1}}, "'name'"),
            # an action where a formula belongs, or the reverse
            ({"kind": "conn", "symbol": "/\\", "args": [_ATOM_A, _PROP_P]},
             "'args': expected a formula"),
            ({"kind": "modal", "lifting": "dia", "action": _PROP_P, "args": [_PROP_P]},
             "'action': expected an action"),
            ({"kind": "modal", "lifting": "dia", "action": _ATOM_A, "args": [_ATOM_A]},
             "'args': expected a formula"),
            ({"kind": "op", "op": ";", "args": [_ATOM_A, _PROP_P]}, "'args': expected an action"),
            ({"kind": "test", "test": "t", "arg": _ATOM_A}, "'arg': expected a formula"),
        ],
    )
    def test_malformed_tree_names_the_field(self, data, field):
        # these used to escape as KeyError or TypeError
        with pytest.raises(InvalidParameter, match=field):
            formula_from_json(data)


class TestRuleJson:
    def test_op_rule_roundtrip(self, labelled_l2):
        reg = builtin_rules(labelled_l2)
        for rule in reg.rules.values():
            data = json.loads(dumps(rule_to_json(rule)))
            back = rule_from_json(data, labelled_l2)
            assert back == rule

    def test_instantial_rules_roundtrip(self, instantial):
        reg = builtin_rules(instantial)
        for rule in reg.rules.values():
            back = rule_from_json(rule_to_json(rule), instantial)
            assert back == rule

    @pytest.mark.parametrize(
        "data, beyond",
        [
            ({"op": ";", "lifting": "box", "template": "<3:box> w5"}, "slot 3"),
            ({"op": "~", "lifting": "box", "template": "<2:box> w1"}, "slot 2"),
            ({"op": ";", "lifting": "box", "template": "<1:box><2:box> w2"}, "variable w2"),
            ({"test": "t", "lifting": "box", "template": "w1 -> w3"}, "variable w3"),
            ({"test": "t", "lifting": "box", "template": "<1:box> w1"}, "slot 1"),
        ],
    )
    def test_template_beyond_the_rule_is_rejected(self, labelled_l2, data, beyond):
        # the first used to load and make reduce_full escape with IndexError
        with pytest.raises(InvalidParameter, match=f"'template': {beyond} "):
            rule_from_json(data, labelled_l2)

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"op": ";", "lifting": "box", "template": 5}, "'template'"),
            ({"op": ";", "lifting": ["box"], "template": "<1:box> w1"}, "'lifting'"),
            ({"op": [";"], "lifting": "box", "template": "<1:box> w1"}, "'op'"),
            ({"test": None, "lifting": "box", "template": "w1"}, "'test'"),
        ],
    )
    def test_field_of_the_wrong_type_is_named(self, labelled_l2, data, field):
        # template and lifting used to escape as TypeError
        with pytest.raises(InvalidParameter, match=f"rule field {field}: expected a string"):
            rule_from_json(data, labelled_l2)
