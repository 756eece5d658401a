"""Rule registries and rewriting to normal form."""

import random
import warnings

import pytest

from mvdl import syntax as sx
from mvdl.algebra import build_builtin
from mvdl.errors import IterationPresent, NonlinearAlgebra, NoRule, RewriteBudgetExceeded
from mvdl.harness import bounded_entailment
from mvdl.jsonio import model_from_json
from mvdl.presets import make_preset
from mvdl.reduction import (
    ReductionRule,
    builtin_rules,
    is_normal_form,
    reduce_full,
    reduce_step,
    _rewrite_modal,
)
from mvdl.semantics import EvalSession, eval_formula
from mvdl.syntax import Template, parse, render

from conftest import random_formula, random_model


class TestRegistry:
    def test_crisp_covers_everything(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        keys = set(reg.rules)
        for op in ("+", ";", "~"):
            for lid in ("box", "dia"):
                assert ("op", op, lid) in keys
        assert ("test", "t", "box") in keys and ("test", "t", "dia") in keys
        assert reg.complete

    def test_game_complete_without_star(self, game_l2):
        reg = builtin_rules(game_l2)
        assert reg.complete
        assert ("op", "*", "dia") not in reg.rules

    def test_crisp_test_rule_uses_chi_power(self, crisp_l2):
        # over a Lukasiewicz chain the truth test goes through chi_1 = x(*)x
        reg = builtin_rules(crisp_l2)
        rule = reg.rules[("test", "t", "box")]
        text = render(rule.template)
        assert "->" in text and "w2" in text

    def test_goedel_counter_support_gap(self, G2):
        config = make_preset("pdl-labelled", G2)
        reg = builtin_rules(config)
        gap_keys = {key for key, _ in reg.gaps}
        # chi_{1} is the Baaz delta, not Goedel-definable, so the box rule
        # gaps; chi_{0} is plain negation, so the diamond rule exists
        assert ("op", "~", "box") in gap_keys
        assert ("op", "~", "dia") in reg.rules
        assert not reg.complete
        # the rest of the registry is still there
        assert ("op", ";", "box") in reg.rules

    def test_goedel_with_installed_chi_closes_gap(self):
        g2 = build_builtin("goedel", 2, chi=(0, 2))
        config = make_preset("pdl-labelled", g2)
        reg = builtin_rules(config)
        assert reg.complete

    def test_threshold_requires_linear(self):
        # a non-linear FLew-algebra: the four-element diamond lattice with
        # tensor = meet (a Heyting algebra)
        order = {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)}

        def leq(x, y):
            return (x, y) in order

        def meet(x, y):
            cands = [z for z in range(4) if leq(z, x) and leq(z, y)]
            return max(cands, key=lambda z: sum(leq(w, z) for w in range(4)))

        def join(x, y):
            cands = [z for z in range(4) if leq(x, z) and leq(y, z)]
            return min(cands, key=lambda z: sum(leq(w, z) for w in range(4)))

        from mvdl.algebra import Algebra, derive_residuum, validate_flew

        meet_t = [[meet(x, y) for y in range(4)] for x in range(4)]
        join_t = [[join(x, y) for y in range(4)] for x in range(4)]
        impl_t = derive_residuum(4, join_t, meet_t)
        diamond = Algebra(4, meet_t, join_t, meet_t, impl_t, labels=["0", "a", "b", "1"])
        assert validate_flew(diamond).ok and not diamond.linear
        with pytest.raises(NonlinearAlgebra):
            builtin_rules(make_preset("pdl-threshold", diamond))

    def test_duplicate_key_warns_and_replaces(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        replacement = ReductionRule(
            "op", ";", "dia", reg.rules[("op", ";", "dia")].template
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reg.add(replacement)
        assert any("replacing" in str(w.message) for w in caught)
        assert reg.rules[("op", ";", "dia")] is replacement

    def test_instantial_rule_shapes(self, instantial):
        reg = builtin_rules(instantial)
        seq = render(reg.rules[("op", ";", "inst2")].template)
        assert seq == "<1:inst2>(<2:inst2>(w1, w2), <2:inst1> w2)"
        star = render(reg.rules[("op", "&", "inst2")].template)
        assert star == "<1:inst2>(<2:inst2>(w1, w2), 1)"


class TestRewriting:
    def test_kleisli_step(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        phi = parse("<a;b> p", crisp_b2.signature)
        assert reduce_step(phi, reg) == parse("<a><b> p", crisp_b2.signature)

    def test_labelled_test_step(self, labelled_l2):
        reg = builtin_rules(labelled_l2)
        phi = parse("<?t(q)> p", labelled_l2.signature)
        assert reduce_step(phi, reg) == parse("q * p", labelled_l2.signature)

    def test_normal_form_means_atomic_actions_only(self, crisp_b2):
        for text, normal in [
            ("<a>(<b>p /\\ 1)", True), ("<a;b> p", False),
            ("<?t(<a>p)> q", False), ("[a](q -> <b;a> p)", False),
        ]:
            assert is_normal_form(parse(text, crisp_b2.signature)) == normal, text

    def test_atomic_no_redex(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        assert reduce_step(parse("<a> p", crisp_b2.signature), reg) is None

    def test_modality_free_untouched(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        phi = parse("p -> q", crisp_b2.signature)
        assert reduce_full(phi, reg) == phi

    def test_iteration_rejected(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        with pytest.raises(IterationPresent):
            reduce_full(parse("<a*> p", crisp_b2.signature), reg)
        with pytest.raises(IterationPresent):
            reduce_step(parse("<a*> p", crisp_b2.signature), reg)

    def test_choice_of_composition(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        phi = parse("<(a;b)+c> p", crisp_b2.signature)
        normal = reduce_full(phi, reg)
        assert normal == parse("<a><b> p \\/ <c> p", crisp_b2.signature)
        assert is_normal_form(normal)

    def test_no_rule_error(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        del reg.rules[("op", "+", "dia")]
        with pytest.raises(NoRule) as err:
            reduce_full(parse("<a+b> p", crisp_b2.signature), reg)
        assert err.value.key == ("op", "+", "dia")

    def test_rewrite_budget(self, crisp_b2):
        reg = builtin_rules(crisp_b2)
        phi = parse("<((a;b);(a;b));((a;b);(a;b))> p", crisp_b2.signature)
        with pytest.raises(RewriteBudgetExceeded):
            reduce_full(phi, reg, budget=2)

    def test_rewrite_budget_allows_that_many_rewrites(self, crisp_b2):
        # two rewrites reach the normal form: a budget of 2 is enough, 1 is not
        reg = builtin_rules(crisp_b2)
        phi = parse("<(a;b);c> p", crisp_b2.signature)
        normal = parse("<a><b><c> p", crisp_b2.signature)
        assert reduce_full(phi, reg, budget=2) == normal
        assert reduce_full(normal, reg, budget=0) == normal
        with pytest.raises(RewriteBudgetExceeded, match="within 1 steps"):
            reduce_full(phi, reg, budget=1)

    def test_innermost_handles_nested_tests(self, labelled_l2):
        reg = builtin_rules(labelled_l2)
        phi = parse("<?t(<a;b> q)> p", labelled_l2.signature)
        step1 = reduce_step(phi, reg)
        # the test argument is rewritten before the test is consumed
        assert step1 == parse("<?t(<a><b> q)> p", labelled_l2.signature)
        normal = reduce_full(phi, reg)
        assert is_normal_form(normal)

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
    def test_fuzzed_normal_forms(self, preset_name, alg_name):
        from mvdl.algebra import algebra_by_name

        config = make_preset(preset_name, algebra_by_name(alg_name))
        reg = builtin_rules(config)
        rng = random.Random(len(preset_name))
        for _ in range(120):
            phi = random_formula(rng, config, depth=3, allow_star=False)
            normal = reduce_full(phi, reg)
            assert is_normal_form(normal)

    @pytest.mark.parametrize(
        "preset_name,alg_name",
        [
            ("pdl-crisp", "L2"),
            ("pdl-labelled", "L2"),
            ("pdl-threshold", "L2"),
            ("game", "L2"),
            ("instantial", "B2"),
        ],
    )
    def test_normal_form_preserves_semantics(self, preset_name, alg_name):
        # soundness of the whole rewrite on random models
        from mvdl.algebra import algebra_by_name

        config = make_preset(preset_name, algebra_by_name(alg_name))
        reg = builtin_rules(config)
        rng = random.Random(101)
        for _ in range(40):
            phi = random_formula(rng, config, depth=3, allow_star=False)
            normal = reduce_full(phi, reg)
            assert reduce_full(normal, reg) == normal  # normal forms are fixed
            for n in (1, 2):
                model = random_model(rng, config, n)
                assert eval_formula(model, phi) == eval_formula(model, normal)

    def test_confluence_in_effect(self, labelled_l2):
        # an outermost-first strategy must reach a semantically equal normal
        # form even when the rewrite sequences differ
        reg = builtin_rules(labelled_l2)

        def outermost_step(node):
            if isinstance(node, sx.Modal) and isinstance(node.action, (sx.Op, sx.Test)):
                return _rewrite_modal(node, reg)
            if isinstance(node, sx.Conn):
                for i, arg in enumerate(node.args):
                    changed = outermost_step(arg)
                    if changed is not None:
                        args = list(node.args)
                        args[i] = changed
                        return sx.Conn(node.symbol, tuple(args))
                return None
            if isinstance(node, sx.Modal):
                changed = _outermost_action(node.action)
                if changed is not None:
                    return sx.Modal(node.lifting, changed, node.args)
                for i, arg in enumerate(node.args):
                    changed = outermost_step(arg)
                    if changed is not None:
                        args = list(node.args)
                        args[i] = changed
                        return sx.Modal(node.lifting, node.action, tuple(args))
            return None

        def _outermost_action(node):
            if isinstance(node, sx.Op):
                for i, arg in enumerate(node.args):
                    changed = _outermost_action(arg)
                    if changed is not None:
                        args = list(node.args)
                        args[i] = changed
                        return sx.Op(node.op, tuple(args))
                return None
            if isinstance(node, sx.Test):
                changed = outermost_step(node.arg)
                if changed is not None:
                    return sx.Test(node.test, changed)
            return None

        rng = random.Random(55)
        for _ in range(40):
            phi = random_formula(rng, labelled_l2, depth=3, allow_star=False)
            inner = reduce_full(phi, reg)
            outer = phi
            for _ in range(10_000):
                nxt = outermost_step(outer)
                if nxt is None:
                    break
                outer = nxt
            assert is_normal_form(outer)
            model = random_model(rng, labelled_l2, 2)
            assert eval_formula(model, inner) == eval_formula(model, outer)


# -- reducibility, checked exhaustively ---------------------------------------
#
# Strong completeness rests on every formula being equivalent to its normal
# form.  The check above samples one model per carrier size; these sweep
# every model up to max_n states.


def _iff(phi, psi):
    return sx.Conn("/\\", (sx.Conn("->", (phi, psi)), sx.Conn("->", (psi, phi))))


@pytest.mark.parametrize(
    "preset_name,alg_name,max_n",
    [
        ("pdl-crisp", "L2", 2),
        ("pdl-labelled", "L2", 2),
        ("pdl-threshold", "L2", 2),
        ("game", "L2", 1),
        ("instantial", "B2", 1),
    ],
)
def test_normal_form_is_equivalent_in_every_small_model(preset_name, alg_name, max_n):
    from mvdl.algebra import algebra_by_name

    config = make_preset(preset_name, algebra_by_name(alg_name))
    reg = builtin_rules(config)
    rng = random.Random(303)
    for _ in range(30):
        phi = random_formula(rng, config, depth=3, allow_star=False)
        verdict = bounded_entailment([], _iff(phi, reduce_full(phi, reg)), config, max_n=max_n)
        assert verdict.status == "holds-up-to-bound", (render(phi), verdict.counterexample)


def _swap_meet_join(node):
    if isinstance(node, sx.Conn):
        symbol = {"/\\": "\\/", "\\/": "/\\"}.get(node.symbol, node.symbol)
        return sx.Conn(symbol, tuple(map(_swap_meet_join, node.args)))
    if isinstance(node, sx.Modal):
        return sx.Modal(node.lifting, node.action, tuple(map(_swap_meet_join, node.args)))
    return node


def test_normal_form_of_a_swapped_rule_is_refuted(labelled_l2):
    # the same check must catch a registry with one rule's /\ and \/ swapped,
    # with a countermodel on which the two sides evaluate apart
    reg = builtin_rules(labelled_l2)
    key = ("op", "+", "dia")
    template = reg.rules[key].template
    reg.rules[key] = ReductionRule(
        *key, Template(template.n, template.k, _swap_meet_join(template.body))
    )
    phi = parse("<a+b> p", labelled_l2.signature)
    normal = reduce_full(phi, reg)
    verdict = bounded_entailment([], _iff(phi, normal), labelled_l2, max_n=2)
    assert verdict.status == "fails"
    session = EvalSession(model_from_json(verdict.counterexample["model"]))
    state = verdict.counterexample["state"]
    assert session.eval(phi)[state] != session.eval(normal)[state]
