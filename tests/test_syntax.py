"""Parser, renderer and template machinery."""

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from mvdl import syntax as sx
from mvdl.errors import (
    ArityMismatch,
    FormulaSyntaxError,
    LengthMismatch,
    UnknownIdentifier,
)
from mvdl.presets import make_preset
from mvdl.reduction import builtin_rules
from mvdl.syntax import Template, instantiate, parse, render

from conftest import random_action, random_formula, random_template


class TestParse:
    def test_modal_with_composed_action(self, labelled_l2):
        ast = parse("<a;b:dia> p", labelled_l2.signature)
        assert ast == sx.Modal(
            "dia", sx.Op(";", (sx.Atomic("a"), sx.Atomic("b"))), (sx.Prop("p"),)
        )

    def test_box_sugar(self, labelled_l2):
        ast = parse("[a](p -> q)", labelled_l2.signature)
        assert ast == sx.Modal(
            "box",
            sx.Atomic("a"),
            (sx.Conn("->", (sx.Prop("p"), sx.Prop("q"))),),
        )

    def test_arity_mismatch(self, instantial):
        with pytest.raises(ArityMismatch):
            parse("<a:inst2>(p, q, r)", instantial.signature)

    def test_multiarg_modal(self, instantial):
        ast = parse("<a:inst3>(p, q, r)", instantial.signature)
        assert ast.lifting == "inst3" and len(ast.args) == 3

    def test_unknown_prop(self, crisp_b2):
        with pytest.raises(UnknownIdentifier):
            parse("zz", crisp_b2.signature)

    def test_unknown_action(self, crisp_b2):
        with pytest.raises(UnknownIdentifier):
            parse("<zz> p", crisp_b2.signature)

    def test_syntax_error_position(self, crisp_b2):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p -> ->", crisp_b2.signature)
        assert err.value.position >= 5

    def test_trailing_garbage(self, crisp_b2):
        with pytest.raises(FormulaSyntaxError):
            parse("p q", crisp_b2.signature)

    def test_negation_sugar(self, crisp_b2):
        assert parse("!p", crisp_b2.signature) == sx.Conn(
            "->", (sx.Prop("p"), sx.BOT)
        )

    def test_op_not_in_signature(self, threshold_l2):
        with pytest.raises(UnknownIdentifier):
            parse("~a", threshold_l2.signature, "action")

    def test_associativity(self, crisp_b2):
        sig = crisp_b2.signature
        assert parse("p /\\ q /\\ r", sig) == sx.Conn(
            "/\\", (sx.Conn("/\\", (sx.Prop("p"), sx.Prop("q"))), sx.Prop("r"))
        )
        assert parse("p -> q -> r", sig) == sx.Conn(
            "->", (sx.Prop("p"), sx.Conn("->", (sx.Prop("q"), sx.Prop("r"))))
        )
        assert parse("a;b;c", sig, "action") == sx.Op(
            ";", (sx.Op(";", (sx.Atomic("a"), sx.Atomic("b"))), sx.Atomic("c"))
        )

    def test_extras_parse_as_connectives(self):
        alg_preset = make_preset(
            "pdl-labelled",
            __import__("mvdl.algebra", fromlist=["build_builtin"]).build_builtin(
                "lukasiewicz", 2, chi=(2,), constants=(1,)
            ),
        )
        sig = alg_preset.signature
        ast = parse("chi_1(p) -> c_1_2", sig)
        assert ast == sx.Conn(
            "->", (sx.Conn("chi_1", (sx.Prop("p"),)), sx.Conn("c_1_2"))
        )

    def test_connective_arity_enforced(self):
        from mvdl.algebra import build_builtin

        config = make_preset(
            "pdl-labelled", build_builtin("lukasiewicz", 2, chi=(2,))
        )
        with pytest.raises(ArityMismatch):
            parse("chi_1(p, q)", config.signature)

    def test_threshold_liftings(self, threshold_l2):
        ast = parse("<a:dia_1_2> p", threshold_l2.signature)
        assert ast.lifting == "dia_1_2"
        with pytest.raises(UnknownIdentifier):
            parse("<a> p", threshold_l2.signature)  # no default diamond


class TestTemplates:
    def test_parse_template(self, labelled_l2):
        t = parse("<1:dia><2:dia> w1", labelled_l2.signature, "template")
        assert t == Template(
            2, 1, sx.Modal("dia", 1, (sx.Modal("dia", 2, (sx.Var(1),)),))
        )
        assert t.independent

    def test_not_independent(self, threshold_l2):
        t = parse(
            "<1:dia_1><2:dia_1_2> w1", threshold_l2.signature, "template"
        )
        assert not t.independent

    def test_render_var(self):
        assert render(Template(0, 1, sx.Var(1))) == "w1"

    def test_instantiate_nesting(self, labelled_l2):
        t = parse("<1:dia><2:dia> w1", labelled_l2.signature, "template")
        out = instantiate(t, [sx.Atomic("a"), sx.Atomic("b")], [sx.Prop("p")])
        assert out == parse("<a:dia><b:dia> p", labelled_l2.signature)

    def test_instantiate_identity(self, labelled_l2):
        t = Template(0, 1, sx.Var(1))
        assert instantiate(t, [], [sx.Prop("p")]) == sx.Prop("p")

    def test_instantiate_length_mismatch(self, labelled_l2):
        t = parse("<1:dia> w1", labelled_l2.signature, "template")
        with pytest.raises(LengthMismatch):
            instantiate(t, [], [sx.Prop("p")])
        with pytest.raises(LengthMismatch):
            instantiate(t, [sx.Atomic("a")], [])

    def test_threshold_big_join_single_disjunct(self, L2):
        # over the two-element algebra only the top pair survives the side
        # condition, so the expanded composition rule is a single disjunct
        from mvdl.algebra import build_builtin
        from mvdl.presets import make_preset
        from mvdl.reduction import builtin_rules

        l1 = build_builtin("lukasiewicz", 1)
        cfg = make_preset("pdl-threshold", l1)
        reg = builtin_rules(cfg)
        rule = reg.rules[("op", ";", "dia_1")]
        assert rule.template.body == sx.Modal(
            "dia_1", 1, (sx.Modal("dia_1", 2, (sx.Var(1),)),)
        )

    def test_instantiate_commutes_with_connectives(self, labelled_l2):
        rng = random.Random(11)
        for _ in range(200):
            t1 = random_template(rng, labelled_l2, 2, 2, 2)
            t2 = random_template(rng, labelled_l2, 2, 2, 2)
            acts = (sx.Atomic("a"), sx.Atomic("b"))
            forms = (sx.Prop("p"), sx.Prop("q"))
            combined = Template(2, 2, sx.Conn("/\\", (t1.body, t2.body)))
            assert instantiate(combined, acts, forms) == sx.Conn(
                "/\\",
                (instantiate(t1, acts, forms), instantiate(t2, acts, forms)),
            )

    def test_independent_flag_matches_traversal(self, threshold_l2):
        rng = random.Random(13)
        for _ in range(300):
            t = random_template(rng, threshold_l2, 2, 2, 3)
            liftings = set()
            stack = [t.body]
            while stack:
                node = stack.pop()
                if isinstance(node, sx.Modal):
                    liftings.add(node.lifting)
                if not isinstance(node, sx.Var):
                    stack.extend(node.args)
            assert t.independent == (len(liftings) <= 1)


class TestTraversal:
    def test_formula_actions_order(self, labelled_l2):
        # check_invariance reports the first failing action in this order:
        # an action after those inside its own tests, before its arguments'
        sig = labelled_l2.signature
        phi = parse("<?t(<a>p)> [b;a] q", sig)
        want = ["a", "?t(<a> p)", "b;a"]
        assert [render(act, sig) for act in sx.formula_actions(phi)] == want


class TestRoundTrip:
    @pytest.mark.parametrize(
        "preset_name", ["pdl-crisp", "pdl-labelled", "pdl-threshold", "game", "instantial"]
    )
    def test_parse_render_identity(self, preset_name, L2):
        from mvdl.algebra import build_builtin

        alg = (
            build_builtin("boolean")
            if preset_name == "instantial"
            else build_builtin("lukasiewicz", 2, chi=(2,), constants=(1,))
        )
        config = make_preset(preset_name, alg)
        # crc32, unlike the salted str hash, seeds the same formulas in every run
        rng = random.Random(zlib.crc32(preset_name.encode()))
        for _ in range(2000):
            ast = random_formula(rng, config, depth=4)
            text = render(ast, config.signature)
            assert parse(text, config.signature) == ast, text
            bare = render(ast)
            assert parse(bare, config.signature) == ast, bare
        for _ in range(500):
            act = random_action(rng, config, depth=3)
            text = render(act, config.signature)
            assert parse(text, config.signature, "action") == act, text
        # templates: random bodies, sized as parse sizes them, and the builtin rules
        templates = [_sized(random_template(rng, config, 2, 3, 4).body) for _ in range(500)]
        templates += [rule.template for rule in builtin_rules(config).rules.values()]
        for t in templates:
            for text in (render(t, config.signature), render(t)):
                assert parse(text, config.signature, "template") == t, text


def _sized(body):
    """The template over as many slots and variables as ``body`` uses."""
    nodes = list(sx.subterms(body))
    return Template(
        max((node.action for node in nodes if isinstance(node, sx.Modal)), default=0),
        max((node.index for node in nodes if isinstance(node, sx.Var)), default=0),
        body,
    )


def test_reimport_frees_the_old_modules():
    # a process that drops mvdl from sys.modules and imports it again (as a
    # benchmark pass or importlib.reload does) must not keep the old copy
    # alive, e.g. through a typing cache; run apart so this suite keeps its mvdl
    code = """
import gc, sys, weakref
import mvdl.cli
old = weakref.ref(sys.modules["mvdl.syntax"].Conn)
mvdl.cli.main(["reduce", "--preset", "pdl-labelled", "--algebra", "L2", "--phi", "<a+b> p"])
for name in [n for n in sys.modules if n == "mvdl" or n.startswith("mvdl.")]:
    del sys.modules[name]
del mvdl
import mvdl.cli
gc.collect()
sys.exit(0 if old() is None else 1)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
