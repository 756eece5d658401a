"""Morphism, safety, separation, soundness, one-step and entailment checks."""

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from math import prod

import pytest

from mvdl.actions import OperationSpec, apply_op
from mvdl.algebra import algebra_by_name
from mvdl.errors import (
    BudgetExceeded,
    InvalidParameter,
    PreconditionViolated,
    UnsupportedKind,
)
from mvdl.functors import Kind, functor_ops, int_drawer, predicate_drawer, predicate_space
from mvdl.harness import (
    DEFAULT_SEED,
    _SafetyIds,
    _safety_pair,
    _safety_squares,
    bounded_entailment,
    check_invariance,
    check_safety,
    check_separation,
    is_morphism,
    one_step_witness,
    pullback_model,
    verify_reduction_rule,
    verify_registry,
)
from mvdl import actions, functors, harness, reduction, semantics
from mvdl.jsonio import config_from_json, fvalue_from_json, fvalue_to_json, model_from_json
from mvdl.presets import PRESET_NAMES, make_preset
from mvdl.reduction import ReductionRule, RuleRegistry, builtin_rules
from mvdl.semantics import Model, eval_formula
from mvdl import syntax as sx
from mvdl.syntax import Atomic, Conn, Modal, Op, Prop, Template, Var, instantiate, parse

import sweep_parity
from conftest import random_formula, random_model
from reference_eval import (
    reference_entailment,
    reference_rule_sweep,
    reference_safety,
    reference_safety_pairs,
    reference_safety_sampled,
)


class TestMorphism:
    def test_identity_always(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        value = fops.drawer(random.Random(1))
        for _ in range(20):
            g = tuple(value() for _ in range(2))
            assert is_morphism((0, 1), g, g, Kind.APOWERSET, L2)

    def test_powerset_collapse_counterexample(self, B2):
        # f collapsing two states; gamma(x)={y}, gamma(y)={} vs gamma'(z)={z}
        f = (0, 0)
        gamma = (0b10, 0b00)
        gamma2 = (0b01,)
        assert not is_morphism(f, gamma, gamma2, Kind.POWERSET, B2)

    def test_naturality_witness_constant_coalgebras(self, L2):
        # the converse construction: meet is not natural for labelled rows,
        # so constant coalgebras built from a witness refute the morphism
        f = (0, 0)
        t1, t2 = (2, 0), (0, 2)
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        img1, img2 = fops.map(f, 1, t1), fops.map(f, 1, t2)
        g1, g2 = (t1, t1), (t2, t2)
        h1, h2 = (img1,), (img2,)
        assert is_morphism(f, g1, h1, Kind.APOWERSET, L2)
        assert is_morphism(f, g2, h2, Kind.APOWERSET, L2)
        meet = OperationSpec("meet", 2, "meet-pw")
        fops_tgt = functor_ops(Kind.APOWERSET, 1, L2)
        assert not is_morphism(
            f,
            apply_op(meet, (g1, g2), fops),
            apply_op(meet, (h1, h2), fops_tgt),
            Kind.APOWERSET,
            L2,
        )


@pytest.fixture
def every_candidate(monkeypatch):
    """No operand is trimmed to its first candidate: ``_safety_squares``
    yields the full candidate lists."""
    monkeypatch.setattr(harness, "LOCAL_OPERANDS", dict.fromkeys(actions.LOCAL_OPERANDS, ()))


def _premises(op, fops_src, fops_tgt, vals_src, vals_tgt):
    """``(f, gammas, cands)`` for each premise of the full form of
    ``_safety_squares``, map by map, on the ids of a fresh carrier pair."""
    spaces = {fops_src.n: vals_src, fops_tgt.n: vals_tgt}
    ids = _SafetyIds(fops_src, fops_tgt)
    for f, _, _, _, premises in _safety_squares(op, ids, spaces):
        for gammas, cands in premises:
            yield f, gammas, cands


def _decode(vals, coalgs) -> tuple:
    """Coalgebras given as vid tuples, as tuples of FValues."""
    return tuple(tuple(vals[v] for v in g) for g in coalgs)


class TestSafetySweepCoverage:
    @pytest.mark.usefixtures("every_candidate")
    def test_exhaustive_pairs_match_brute_force(self, crisp_b2):
        # oracle: filter all (f, gammas, gammas') triples by the joint
        # morphism premise and compare with the forced-value generator
        op = crisp_b2.ops["+"]
        kind, alg = crisp_b2.kind, crisp_b2.struct
        for n_src, n_tgt in ((1, 1), (1, 2), (2, 1), (2, 2)):
            fops_src = crisp_b2.fops(n_src)
            fops_tgt = crisp_b2.fops(n_tgt)
            vals_src = list(fops_src.enumerate())
            vals_tgt = list(fops_tgt.enumerate())
            coalgs_src = list(product(vals_src, repeat=n_src))
            coalgs_tgt = list(product(vals_tgt, repeat=n_tgt))
            brute = set()
            for f in product(range(n_tgt), repeat=n_src):
                for gammas in product(coalgs_src, repeat=2):
                    for gammas2 in product(coalgs_tgt, repeat=2):
                        if all(
                            is_morphism(f, g, g2, kind, alg)
                            for g, g2 in zip(gammas, gammas2)
                        ):
                            brute.add((f, gammas, gammas2))
            # the generator works on ids: decode value ids through vals_src
            # and vals_tgt
            generated = set()
            for f, gammas, cands in _premises(op, fops_src, fops_tgt, vals_src, vals_tgt):
                decoded = _decode(vals_src, gammas)
                for targets in product(*cands):
                    generated.add((f, decoded, _decode(vals_tgt, targets)))
            assert generated == brute, (n_src, n_tgt)

    @pytest.mark.parametrize(
        "preset, alg_name, op_id",
        [("pdl-crisp", "B2", "+"), ("pdl-labelled", "B2", ";"), ("game", "B2", "&")],
    )
    @pytest.mark.usefixtures("every_candidate")
    def test_premises_come_in_reference_order(self, preset, alg_name, op_id):
        # the first counterexample depends on the order, which a set
        # comparison cannot see: decode the id premises one by one
        config = make_preset(preset, algebra_by_name(alg_name))
        op = config.ops[op_id]
        for n_src, n_tgt in product((1, 2), repeat=2):
            fops_src, fops_tgt = config.fops(n_src), config.fops(n_tgt)
            vals_src, vals_tgt = list(fops_src.enumerate()), list(fops_tgt.enumerate())
            decoded = [
                (f, _decode(vals_src, gammas), _decode(vals_tgt, targets))
                for f, gammas, cands in _premises(op, fops_src, fops_tgt, vals_src, vals_tgt)
                for targets in product(*cands)
            ]
            reference = list(
                reference_safety_pairs(op, fops_src, fops_tgt, vals_src, vals_tgt)
            )
            assert decoded == reference, (n_src, n_tgt)

    @pytest.mark.parametrize(
        "preset, alg_name, op_id",
        [("pdl-crisp", "B2", op) for op in ("+", ";", "*", "~")]
        + [("pdl-labelled", "L2", op) for op in ("+", ";", "*", "~")]
        + [("pdl-threshold", "L2", op) for op in ("+", ";", "*")]
        + [("game", "B2", op) for op in ("+", "&", "^d", ";", "*")],
    )
    def test_exhaustive_sweep_matches_reference(self, preset, alg_name, op_id):
        config = make_preset(preset, algebra_by_name(alg_name))
        op = config.ops[op_id]
        evaluated = self._assert_matches_reference(op, config).detail["evaluated"]
        # the budget counts exactly the target tuples a sweep that holds computes
        with pytest.raises(BudgetExceeded) as err:
            check_safety(op, config, max_n=2, budget=evaluated - 1)
        assert err.value.count == evaluated

    def test_unsafe_ops_match_reference(self, labelled_l2, B2):
        # meet-pw on labelled rows, and counter-domain on plain neighbourhoods:
        # Ff(N)(q) = N(q . f) reads only the predicates of the form q . f,
        # so a non-bottom table can map to bottom when f is not injective
        meet = OperationSpec("meet", 2, "meet-pw")
        verdict = self._assert_matches_reference(meet, labelled_l2)
        counter = verdict.counterexample
        assert (verdict.status, verdict.cases, counter["f"], counter["state"]) == (
            "fails", 1505, [0, 0], 1
        )
        nbh = config_from_json({"kind": "aneighbourhood"}, B2)
        domain = OperationSpec("~", 1, "counter-domain")
        assert self._assert_matches_reference(domain, nbh).status == "fails"

    def test_later_candidate_failure_matches_reference(self, monkeypatch, crisp_b2):
        # a composition that is not natural: on two states or more, a right
        # operand looping at its last state adds state 0 to the output of
        # every non-empty left value.  The right operand is not local, so
        # the first failing square lies on a later candidate of it; the left
        # one is local, so the squares of the premises ahead of it, whose
        # left values are empty, are counted, not computed
        natural = actions.composition_map

        def unnatural(fops, variant, g2):
            cmap = natural(fops, variant, g2)
            if fops.n > 1 and g2[-1] == fops.unit(fops.n - 1):
                bottom, zero = fops.bottom(), fops.unit(0)
                return lambda t: cmap(t) if t == bottom else fops.join2(cmap(t), zero)
            return cmap

        monkeypatch.setattr(actions, "composition_map", unnatural)
        monkeypatch.setattr(semantics, "composition_map", unnatural)
        verdict = self._assert_matches_reference(crisp_b2.ops[";"], crisp_b2)
        assert verdict.status == "fails"
        counter = verdict.counterexample
        outside = [y for y in range(2) if y not in counter["f"]]
        right = counter["gammas_target"][1]  # powerset: the first value is 0
        assert outside and any(right[y] != 0 for y in outside)
        assert verdict.detail["evaluated"] < verdict.cases

    @pytest.mark.parametrize("op_id, max_n", [("+", 1), (";", 1), ("&", 1), ("*", 2), ("~", 2)])
    def test_instantial_matches_reference(self, op_id, max_n):
        # the FValue reference takes about a minute per binary operation at
        # two states, so those are compared with the full form below
        config = make_preset("instantial", max_k=1)
        self._assert_matches_reference(config.ops[op_id], config, max_n)

    @pytest.mark.parametrize("op_id", ["+", ";", "&"])
    def test_instantial_local_form_matches_full_form(self, monkeypatch, op_id):
        config = make_preset("instantial", max_k=1)
        op = config.ops[op_id]
        local = check_safety(op, config, max_n=2)
        monkeypatch.setattr(harness, "LOCAL_OPERANDS", dict.fromkeys(actions.LOCAL_OPERANDS, ()))
        # with no operand local, every square is a target operand tuple to
        # compute, 5,269,280 of them, so the default budget refuses the sweep
        full = check_safety(op, config, max_n=2, budget=local.cases)
        assert (local.status, local.cases, local.counterexample) == (
            full.status, full.cases, full.counterexample
        )
        assert local.cases == full.detail["evaluated"] == 5_269_280
        assert local.detail["evaluated"] < full.detail["evaluated"]

    @pytest.mark.parametrize(
        "preset, alg_name, op_id",
        [("pdl-crisp", "B2", "+"), ("pdl-labelled", "L2", ";"), ("pdl-threshold", "L2", "+"),
         ("game", "B2", "&"), ("game", "B2", "^d"), ("instantial", "B2", "~")],
    )
    @pytest.mark.usefixtures("every_candidate")
    def test_closed_form_counts_every_square(self, preset, alg_name, op_id):
        # squares over f, (consistent * free)**arity in closed form, is what
        # the full form's premises hold, each premise holding its ``held``
        # candidate tuples, and the local form reports the same number
        config = make_preset(preset, algebra_by_name(alg_name), max_k=1)
        op = config.ops[op_id]
        local = actions.LOCAL_OPERANDS[op.variant]
        for n_src, n_tgt in product((1, 2), repeat=2):
            fops_src, fops_tgt = config.fops(n_src), config.fops(n_tgt)
            spaces = {n_src: list(fops_src.enumerate()), n_tgt: list(fops_tgt.enumerate())}
            full = [
                (f, squares, held, [prod(map(len, cands)) for _, cands in premises])
                for f, _, squares, held, premises in _safety_squares(
                    op, _SafetyIds(fops_src, fops_tgt), spaces
                )
            ]
            assert all(
                squares == held * len(tuples) and set(tuples) == {held}
                for _, squares, held, tuples in full
            ), (n_src, n_tgt)
            reduced = [
                (f, squares)
                for f, _, squares, _, _ in _safety_squares(
                    op, _SafetyIds(fops_src, fops_tgt), spaces, local
                )
            ]
            assert reduced == [(f, squares) for f, squares, _, _ in full], (n_src, n_tgt)

    def test_unnatural_pointwise_step_is_refuted_in_both_forms(self, monkeypatch, labelled_l2):
        # join-pw that reverses its rows on two states or more: at n = 1 -> 2
        # the target's row at f(0) is reversed and the source's is not
        natural = actions.pointwise_step

        def unnatural(alg, variant):
            step = natural(alg, variant)
            return lambda u, v: step(u, v) if len(u) < 2 else step(u, v)[::-1]

        monkeypatch.setattr(actions, "pointwise_step", unnatural)
        monkeypatch.setattr(semantics, "pointwise_step", unnatural)
        op = labelled_l2.ops["+"]
        # the full form, 16,824 target pairs up to n = 2, fits: the failing
        # pair is swept again in it, and the reference's first
        # counterexample is reported
        verdict = self._assert_matches_reference(op, labelled_l2)
        assert verdict.status == "fails" and "form" not in verdict.detail
        # the local form's 432 <= 1,000 < 16,824: the local form's
        # counterexample, whose operands are constant coalgebras, replays
        # through the square
        verdict = check_safety(op, labelled_l2, max_n=2, budget=1_000)
        assert (verdict.status, verdict.detail["form"]) == ("fails", "local")
        counter, kind, alg = verdict.counterexample, labelled_l2.kind, labelled_l2.struct
        f, x = tuple(counter["f"]), counter["state"]
        gammas, gammas2 = (
            [tuple(fvalue_from_json(kind, v) for v in g) for g in counter[key]]
            for key in ("gammas", "gammas_target")
        )
        assert all(len(set(g)) == 1 for g in gammas)
        assert all(is_morphism(f, g, g2, kind, alg) for g, g2 in zip(gammas, gammas2))
        fops_src, fops_tgt = labelled_l2.fops(len(f)), labelled_l2.fops(len(gammas2[0]))
        out, out2 = apply_op(op, gammas, fops_src), apply_op(op, gammas2, fops_tgt)
        assert fops_src.map(f, fops_tgt.n, out[x]) != out2[f[x]]

    @staticmethod
    def _assert_matches_reference(op, config, max_n=2):
        verdict = check_safety(op, config, max_n=max_n)
        status, cases, counter = reference_safety(op, config, max_n=max_n)
        assert (verdict.status, verdict.cases, verdict.counterexample) == (
            status, cases, counter
        )
        return verdict


def _sampled_safety_targets():
    """Every operation of every preset (game and instantial over B2, the
    others over L2), which the sweeps find safe, then meet-pw on
    pdl-labelled/L2 and counter-domain on aneighbourhood/B2, which they
    refute from two states on."""
    L2, B2 = algebra_by_name("L2"), algebra_by_name("B2")
    targets = []
    for name in PRESET_NAMES:
        config = make_preset(name, B2 if name in ("game", "instantial") else L2)
        targets += [(config, op, False) for op in config.ops.values()]
    targets.append((make_preset("pdl-labelled", L2), OperationSpec("meet", 2, "meet-pw"), True))
    nbh = config_from_json({"kind": "aneighbourhood"}, B2)
    targets.append((nbh, OperationSpec("~", 1, "counter-domain"), True))
    return [
        pytest.param(config, op, unsafe, id=f"{config.name}/{config.truth.name} {op.variant}")
        for config, op, unsafe in targets
    ]


@pytest.mark.parametrize("config, op, unsafe", _sampled_safety_targets())
def test_sampled_safety_matches_reference(config, op, unsafe):
    # the id sweep fed by drawn premises against the FValue loop it replaced:
    # same draws, same cases, same first counterexample
    for max_n in (1, 2, 3):
        for seed in (0, 1, DEFAULT_SEED):
            verdict = check_safety(op, config, max_n=max_n, mode="random", trials=200, seed=seed)
            got = (verdict.status, verdict.cases, verdict.counterexample)
            assert got == reference_safety_sampled(op, config, max_n, 200, seed), (max_n, seed)
            assert verdict.status == ("fails" if unsafe and max_n > 1 else "holds-up-to-bound")


@pytest.mark.parametrize("preset, alg_name, op_id", [("game", "L2", ";"), ("instantial", "B2", "*")])
def test_sampled_safety_starts_afresh(monkeypatch, preset, alg_name, op_id):
    # a long sampled sweep drops its ids, tables and drawn values every few
    # draws; the verdict does not depend on when
    config = make_preset(preset, algebra_by_name(alg_name))
    op = config.ops[op_id]
    want = reference_safety_sampled(op, config, 3, 600, 4)
    monkeypatch.setattr(functors, "DRAW_TABLE_ENTRIES", 5)
    verdict = check_safety(op, config, max_n=3, mode="random", trials=600, seed=4)
    assert (verdict.status, verdict.cases, verdict.counterexample) == want


class TestFunctorLaws:
    @pytest.mark.parametrize(
        "kind,alg_fixture",
        [
            (Kind.POWERSET, "B2"),
            (Kind.APOWERSET, "L2"),
            (Kind.A_NEIGHBOURHOOD, "L2"),
            (Kind.MONOTONE_NEIGHBOURHOOD, "L2"),
            (Kind.DOUBLE_POWERSET, "B2"),
        ],
    )
    def test_identity_and_composition(self, kind, alg_fixture, request):
        alg = request.getfixturevalue(alg_fixture)
        fops2 = functor_ops(kind, 2, alg)
        values = list(fops2.enumerate(100_000))
        identity = (0, 1)
        for t in values:
            assert fops2.map(identity, 2, t) == t
        # F(g . f) = Fg . Ff through an intermediate carrier of size 2
        for f in product(range(2), repeat=2):
            for g in product(range(2), repeat=2):
                comp = tuple(g[f[x]] for x in range(2))
                for t in values:
                    assert fops2.map(comp, 2, t) == fops2.map(
                        g, 2, fops2.map(f, 2, t)
                    )

    @pytest.mark.parametrize(
        "kind,alg_fixture",
        [
            (Kind.POWERSET, "B2"),
            (Kind.APOWERSET, "L2"),
            (Kind.MONOTONE_NEIGHBOURHOOD, "L2"),
            (Kind.DOUBLE_POWERSET, "B2"),
        ],
    )
    def test_unit_and_bottom_are_natural(self, kind, alg_fixture, request):
        # Ff(eta(x)) = eta(f(x)) and Ff(bottom) = bottom: the pointedness
        # the counter-domain operation and the tests rely on
        alg = request.getfixturevalue(alg_fixture)
        fops2 = functor_ops(kind, 2, alg)
        fops1 = functor_ops(kind, 1, alg)
        for n_tgt, fops_tgt in ((1, fops1), (2, fops2)):
            for f in product(range(n_tgt), repeat=2):
                for x in range(2):
                    assert fops2.map(f, n_tgt, fops2.unit(x)) == fops_tgt.unit(f[x])
                assert fops2.map(f, n_tgt, fops2.bottom()) == fops_tgt.bottom()


class TestSafety:
    def test_joinpw_holds(self, labelled_l2):
        verdict = check_safety(labelled_l2.ops["+"], labelled_l2, max_n=2)
        assert verdict.status == "holds-up-to-bound"

    def test_meetpw_fails_with_replayable_witness(self, labelled_l2):
        meet = OperationSpec("meet", 2, "meet-pw")
        verdict = check_safety(meet, labelled_l2, max_n=2)
        assert verdict.status == "fails"
        c = verdict.counterexample
        f = tuple(c["f"])
        gammas = tuple(
            tuple(fvalue_from_json(Kind.APOWERSET, v) for v in g) for g in c["gammas"]
        )
        gammas2 = tuple(
            tuple(fvalue_from_json(Kind.APOWERSET, v) for v in g)
            for g in c["gammas_target"]
        )
        alg = labelled_l2.struct
        # premise replays: f is a joint morphism on the inputs
        for g, g2 in zip(gammas, gammas2):
            assert is_morphism(f, g, g2, Kind.APOWERSET, alg)
        # conclusion replays: the composed coalgebras are not related by f
        fops_src = functor_ops(Kind.APOWERSET, len(gammas[0]), alg)
        fops_tgt = functor_ops(Kind.APOWERSET, len(gammas2[0]), alg)
        assert not is_morphism(
            f,
            apply_op(meet, gammas, fops_src),
            apply_op(meet, gammas2, fops_tgt),
            Kind.APOWERSET,
            alg,
        )

    def test_powerset_ops_hold(self, crisp_l2):
        for op_id in ("+", ";", "*", "~"):
            verdict = check_safety(crisp_l2.ops[op_id], crisp_l2, max_n=2)
            assert verdict.ok, op_id

    def test_every_test_variant_holds(self, crisp_l2, labelled_l2, game_b2, instantial):
        for config in (crisp_l2, labelled_l2, game_b2, instantial):
            verdict = check_safety(config.tests["t"], config, max_n=2)
            assert verdict.ok, config.name

    def test_dual_on_monotone_holds(self, game_b2):
        verdict = check_safety(game_b2.ops["^d"], game_b2, max_n=2)
        assert verdict.ok

    def test_sampled_mode(self, game_l2):
        verdict = check_safety(
            game_l2.ops[";"], game_l2, max_n=2, mode="random", trials=500, seed=9
        )
        assert verdict.status == "holds-up-to-bound"

    def test_game_ops_hold_over_b2(self, game_b2):
        for op_id in ("+", "&", "^d", ";", "*"):
            verdict = check_safety(game_b2.ops[op_id], game_b2, max_n=2)
            assert verdict.ok, op_id

    def test_instantial_binary_ops_sampled(self, instantial):
        for op_id in ("+", ";", "&"):
            verdict = check_safety(
                instantial.ops[op_id], instantial, max_n=2, mode="random",
                trials=1500, seed=17,
            )
            assert verdict.status == "holds-up-to-bound", op_id

    def test_instantial_counter_domain_holds(self, instantial):
        verdict = check_safety(instantial.ops["~"], instantial, max_n=2)
        assert verdict.ok

    def test_instantial_star_holds(self, instantial):
        verdict = check_safety(instantial.ops["*"], instantial, max_n=2)
        assert verdict.ok


# the rule sweeps' carrier size per preset, as the benchmark's rule-sweep
# workload runs them (game/L2 at n = 2 exceeds the default budget)
REDUCIBLE_PRESETS = [
    ("pdl-crisp", "L2", 2), ("pdl-labelled", "L2", 2), ("pdl-threshold", "L2", 2),
    ("game", "L2", 1), ("instantial", None, 2),
]


@pytest.mark.parametrize("preset, alg_name, n", REDUCIBLE_PRESETS)
def test_reducible_operations_are_safe(preset, alg_name, n):
    # the paper's theorem as a regression test: an operation whose builtin
    # rules all hold is safe, wherever its local-form sweep fits the budget
    config = make_preset(preset, alg_name and algebra_by_name(alg_name), max_k=1)
    verdicts = verify_registry(builtin_rules(config), n=n)
    checked = {}
    for op in config.ops.values():
        rules = [v for key, v in verdicts.items() if key[:2] == ("op", op.id)]
        if not rules or not all(v.status == "holds" for v in rules):
            continue
        try:
            verdict = check_safety(op, config, max_n=2)
        except BudgetExceeded:
            continue
        assert verdict.status == "holds-up-to-bound", op.id
        checked[op.id] = verdict.cases
    assert checked
    if preset == "game":
        # `;` (441,650,225 target operand tuples) is over budget; `*` has no rules
        assert checked == {"+": 3_016_057_397_825, "&": 3_016_057_397_825, "^d": 2_527_025}


class TestSafetyBudget:
    def test_operand_tuples_are_counted_before_the_sweep(self, game_l2):
        # 175 monotone values at two states give 30,625 coalgebras; `;`
        # sweeps its local left operand over the 175 constant coalgebras and
        # its right one over every consistent coalgebra, each computed at
        # every fill of the states outside the image of f: the target
        # operand tuples of every map are counted, and refused at once
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="random mode") as err:
            check_safety(game_l2.ops[";"], game_l2, max_n=2)
        assert err.value.count == 441_650_225
        assert time.perf_counter() - t0 < 5

    def test_one_operand_fits_where_two_do_not(self, labelled_l2):
        # V = 9 values at two states: `+` (both operands local) computes 432
        # and `*` 884 target operand tuples up to n = 2, <= 1,000 < 7,614 for
        # `;`, whose right operand is computed at every candidate
        for op_id, evaluated in (("+", 432), ("*", 884)):
            verdict = check_safety(labelled_l2.ops[op_id], labelled_l2, max_n=2, budget=1_000)
            assert verdict.ok and verdict.detail["evaluated"] == evaluated
        with pytest.raises(BudgetExceeded) as err:
            check_safety(labelled_l2.ops[";"], labelled_l2, max_n=2, budget=1_000)
        assert err.value.count == 7_614

    def test_all_local_sweep_enumerates_no_coalgebra(self, labelled_l2):
        # V = 27 values and C = 19,683 coalgebras at three states: `+` reads
        # both operands locally, so a carrier pair's sweep reads one first
        # candidate per image of f and value forced on it, never the C
        # target coalgebras; up to n = 3 it computes 27,432 target pairs
        op = labelled_l2.ops["+"]
        fops = labelled_l2.fops(3)
        ids, spaces = _SafetyIds(fops, fops), {3: list(fops.enumerate())}
        assert _safety_pair(op, ids, _safety_squares(op, ids, spaces, (0, 1)))[2] is None
        read = {
            h
            for *_, premises in _safety_squares(op, ids, spaces, (0, 1))
            for _, cands in premises
            for hs in cands
            for h in hs
        }
        assert len(read) <= 7 * 27 < 27**3
        assert check_safety(op, labelled_l2, max_n=3, budget=27_432).ok
        with pytest.raises(BudgetExceeded) as err:
            check_safety(op, labelled_l2, max_n=3, budget=27_431)
        assert err.value.count == 27_432

    def test_oversized_sweeps_are_refused_before_any_ff(self, labelled_l2, crisp_l2):
        # `+` reads both operands locally, so the target pairs it would
        # compute are sum over n, n' <= max_n of n'**n * V_n**2 (V_n = 3**n
        # labelled, 2**n crisp): a closed form, known before any Ff
        for config, max_n, count in ((labelled_l2, 5, 267_883_659), (crisp_l2, 6, 288_238_404)):
            t0 = time.perf_counter()
            with pytest.raises(BudgetExceeded, match="random mode") as err:
                check_safety(config.ops["+"], config, max_n=max_n)
            assert err.value.count == count
            assert time.perf_counter() - t0 < 1
        # the right operand of `;` is not local, so there the closed form is
        # only a lower bound, and the refusal says so
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="^at least 288238404 target") as err:
            check_safety(crisp_l2.ops[";"], crisp_l2, max_n=6)
        assert time.perf_counter() - t0 < 1

    def test_sampled_mode_has_no_budget(self, labelled_l2):
        verdict = check_safety(
            labelled_l2.ops[";"], labelled_l2, max_n=2, budget=1, mode="random", trials=50
        )
        assert verdict.ok

    def test_test_safety_counts_maps_and_target_predicates(self, labelled_l2):
        # sum over n, n' <= 2 of n'**n * 3**n' = 60 squares
        test = labelled_l2.tests["t"]
        assert check_safety(test, labelled_l2, max_n=2, budget=60).cases == 60
        with pytest.raises(BudgetExceeded) as err:
            check_safety(test, labelled_l2, max_n=2, budget=59)
        assert err.value.count == 60
        with pytest.raises(BudgetExceeded) as err:
            check_safety(test, labelled_l2, max_n=4, budget=1)
        assert err.value.count == 31_062

    def test_unnatural_test_fails_with_a_replayable_square(self, monkeypatch, crisp_b2):
        # test-p with its last state forced to bottom on two states or more
        # is not natural: at f = (1,) from one state onto two and target
        # predicate (0, 1), the test of the pulled predicate (1,) goes to {1}
        # and the target's test is empty at state 1.  The squares over one
        # state (2) and over f = (0,) (4) hold, so the failing one is the 8th
        natural = harness.apply_test

        def unnatural(test, sigma, fops, truth):
            gamma = natural(test, sigma, fops, truth)
            return gamma[:-1] + (fops.bottom(),) if fops.n >= 2 else gamma

        monkeypatch.setattr(harness, "apply_test", unnatural)
        test, truth = crisp_b2.tests["t"], crisp_b2.truth
        verdict = check_safety(test, crisp_b2, max_n=2)
        assert (verdict.status, verdict.cases) == ("fails", 8)
        assert verdict.counterexample == {"f": [1], "sigma_target": [0, 1], "state": 0}
        assert verdict.detail == {"target": "t", "mode": "exhaustive"}
        # the square replays through FunctorOps.map
        counter = verdict.counterexample
        f, sigma2, x = tuple(counter["f"]), tuple(counter["sigma_target"]), counter["state"]
        fops_src, fops_tgt = crisp_b2.fops(1), crisp_b2.fops(2)
        lhs = unnatural(test, tuple(sigma2[y] for y in f), fops_src, truth)
        rhs = unnatural(test, sigma2, fops_tgt, truth)
        assert fops_src.map(f, 2, lhs[x]) != rhs[f[x]]

    def test_test_safety_says_it_swept_every_square(self, labelled_l2):
        # a test target ignores the sampling arguments, and its verdict says so
        test = labelled_l2.tests["t"]
        for mode in ("exhaustive", "random"):
            verdict = check_safety(test, labelled_l2, max_n=2, mode=mode, trials=5, seed=3)
            assert verdict.cases == 60
            assert verdict.detail == {"target": "t", "max_n": 2, "mode": "exhaustive"}


def test_sampled_verdicts_name_their_seed(labelled_l2, threshold_l2):
    op = labelled_l2.ops[";"]
    held = check_safety(op, labelled_l2, max_n=2, mode="random", trials=40, seed=5)
    assert held.detail == {
        "target": ";", "max_n": 2, "mode": "random", "trials": 40, "seed": 5,
    }
    meet = OperationSpec("meet", 2, "meet-pw")
    failed = check_safety(meet, labelled_l2, max_n=2, mode="random", trials=400, seed=5)
    assert failed.status == "fails"
    assert (failed.detail["trials"], failed.detail["seed"]) == (400, 5)
    assert "seed" not in check_safety(op, labelled_l2, max_n=1).detail
    lifting = [threshold_l2.liftings["dia_1"]]
    separated = check_separation(lifting, threshold_l2, n=2, mode="random", trials=30, seed=6)
    assert (separated.detail["trials"], separated.detail["seed"]) == (30, 6)
    assert "seed" not in check_separation(lifting, threshold_l2, n=1).detail


class TestInvariance:
    def test_identity_map(self, labelled_l2):
        rng = random.Random(3)
        model = random_model(rng, labelled_l2, 2)
        phi = parse("<a;b> p \\/ [a+b] q", labelled_l2.signature)
        verdict = check_invariance(model, model, (0, 1), [phi])
        assert verdict.status == "holds"

    def test_quotient_of_three_state_model(self, crisp_b2):
        target = Model(
            2,
            crisp_b2,
            atoms={"a": (0b10, 0b01), "b": (0b11, 0b00)},
            valuation={"p": (1, 0), "q": (0, 0)},
        )
        f = (0, 1, 0)
        src = pullback_model(target, f, 3)
        phis = [
            parse("<a;b> p", crisp_b2.signature),
            parse("[a+b] p", crisp_b2.signature),
        ]
        verdict = check_invariance(src, target, f, phis)
        assert verdict.status == "holds"

    def test_instantial_pullback_invariance(self, instantial):
        rng = random.Random(47)
        target = random_model(rng, instantial, 2)
        f = (0, 1, 1)
        source = pullback_model(target, f, 3)
        phis = [
            parse("<a;b> p", instantial.signature),
            parse("<a:inst2>(p, q)", instantial.signature),
            parse("<(a+b)&a> q", instantial.signature),
            parse("<~a> p", instantial.signature),
        ]
        verdict = check_invariance(source, target, f, phis)
        assert verdict.status == "holds"

    def test_unsafe_op_breaks_invariance_with_counterexample(self, labelled_l2):
        # bind the pointwise meet (unsafe on labelled rows) into a custom
        # config; a collapsing morphism then fails formula invariance
        from dataclasses import replace
        from mvdl.syntax import make_signature

        ops = dict(labelled_l2.ops)
        ops["&"] = OperationSpec("&", 2, "meet-pw")
        sig = make_signature(
            props=("p",),
            atoms=("a", "b"),
            liftings={k: v.arity for k, v in labelled_l2.liftings.items()},
            ops={k: v.arity for k, v in ops.items()},
            tests=("t",),
            box="box",
            diamond="dia",
        )
        config = replace(labelled_l2, ops=ops, signature=sig)
        target = Model(
            1, config, atoms={"a": ((2,),), "b": ((2,),)}, valuation={"p": (2,)}
        )
        f = (0, 0)
        source = Model(
            2,
            config,
            atoms={"a": ((2, 0), (2, 0)), "b": ((0, 2), (0, 2))},
            valuation={"p": (2, 2)},
        )
        phi = parse("<a&b> p", config.signature)
        verdict = check_invariance(source, target, f, [phi])
        assert verdict.status == "fails"
        assert verdict.counterexample is not None
        # the box of top is top at every state of both models, so the
        # formula agrees along f and the verdict fails on the action a&b
        # itself: the meet of the rows is not a morphism image
        verdict = check_invariance(source, target, f, [parse("[a&b] 1", config.signature)])
        assert verdict.status == "fails"
        assert verdict.counterexample["action"] == "a & b"
        assert verdict.counterexample["f"] == [0, 0]
        assert "formula" not in verdict.counterexample

    def test_prop_violation_raises(self, crisp_b2):
        target = Model(1, crisp_b2, atoms={"a": (0,)}, valuation={"p": (1,)})
        src = Model(2, crisp_b2, atoms={"a": (0, 0)}, valuation={"p": (0, 0)})
        with pytest.raises(PreconditionViolated) as err:
            check_invariance(src, target, (0, 0), [])
        assert err.value.offender == "p"

    def test_atom_violation_raises(self, crisp_b2):
        target = Model(1, crisp_b2, atoms={"a": (0,)}, valuation={"p": (1,)})
        src = Model(2, crisp_b2, atoms={"a": (0b11, 0)}, valuation={"p": (1, 1)})
        with pytest.raises(PreconditionViolated) as err:
            check_invariance(src, target, (0, 0), [])
        assert err.value.offender == "a"


class TestSeparation:
    def test_crisp_box_alone(self, crisp_l2):
        v = check_separation([crisp_l2.liftings["box"]], crisp_l2, n=2)
        assert v.status == "holds"

    def test_crisp_diamond_alone(self, crisp_l2):
        v = check_separation([crisp_l2.liftings["dia"]], crisp_l2, n=2)
        assert v.status == "holds"

    def test_threshold_family(self, threshold_l2):
        v = check_separation(list(threshold_l2.liftings.values()), threshold_l2, n=2)
        assert v.status == "holds"

    def test_threshold_top_alone_fails(self, threshold_l2):
        v = check_separation([threshold_l2.liftings["dia_1"]], threshold_l2, n=2)
        assert v.status == "fails"
        t1 = fvalue_from_json(Kind.APOWERSET, v.counterexample["t1"])
        t2 = fvalue_from_json(Kind.APOWERSET, v.counterexample["t2"])
        # replay: no crisp subset pushes either row's join up to 1
        alg = threshold_l2.struct
        for mask in range(4):
            j1 = alg.bigjoin(t1[x] for x in range(2) if mask >> x & 1)
            j2 = alg.bigjoin(t2[x] for x in range(2) if mask >> x & 1)
            assert (j1 == alg.top) == (j2 == alg.top)

    def test_labelled_diamond_separating(self, labelled_l2):
        v = check_separation([labelled_l2.liftings["dia"]], labelled_l2, n=2)
        assert v.status == "holds"

    def test_eval_separating_exhaustive_n1(self, game_l2):
        v = check_separation(list(game_l2.liftings.values()), game_l2, n=1)
        assert v.status == "holds"

    def test_eval_separating_sampled(self, game_l2):
        v = check_separation(
            list(game_l2.liftings.values()), game_l2, n=2, mode="random", trials=300
        )
        assert v.status == "holds-up-to-bound"


class TestVerifyRules:
    @pytest.mark.parametrize(
        "preset_name,alg_name",
        [
            ("pdl-crisp", "B2"),
            ("pdl-crisp", "L2"),
            ("pdl-labelled", "L2"),
            ("pdl-labelled", "G2"),
            ("pdl-threshold", "L2"),
            ("game", "L2"),
            ("instantial", "B2"),
        ],
    )
    def test_every_builtin_rule_holds_at_n1(self, preset_name, alg_name):
        config = make_preset(preset_name, algebra_by_name(alg_name))
        registry = builtin_rules(config)
        results = verify_registry(registry, n=1)
        assert results, "registry should not be empty"
        for key, verdict in results.items():
            assert verdict.status == "holds", key

    @pytest.mark.parametrize(
        "preset_name,alg_name",
        [
            ("pdl-crisp", "B2"),
            ("pdl-crisp", "L2"),
            ("pdl-labelled", "L2"),
            ("pdl-labelled", "G2"),
        ],
    )
    def test_cheap_registries_hold_at_n2(self, preset_name, alg_name):
        config = make_preset(preset_name, algebra_by_name(alg_name))
        registry = builtin_rules(config)
        for key, verdict in verify_registry(registry, n=2).items():
            assert verdict.status == "holds", key

    def test_corrupted_choice_rule_fails_at_one_state(self, crisp_b2):
        # swap the conjunction in the box-choice rule for a disjunction
        bad = ReductionRule(
            "op",
            "+",
            "box",
            Template(
                2,
                1,
                Conn(
                    "\\/",
                    (Modal("box", 1, (Var(1),)), Modal("box", 2, (Var(1),))),
                ),
            ),
        )
        verdict = verify_reduction_rule(bad, crisp_b2, n=1)
        assert verdict.status == "fails"
        c = verdict.counterexample
        assert len(c["sigmas"][0]) == 1  # one-state countermodel
        assert c["lhs"] != c["rhs"]

    def test_random_mode_matches_exhaustive(self, labelled_l2):
        registry = builtin_rules(labelled_l2)
        rule = registry.rules[("op", ";", "dia")]
        v = verify_reduction_rule(rule, labelled_l2, n=2, mode="random", trials=500)
        assert v.status == "holds-up-to-bound"

    def test_counterexample_replays(self, crisp_b2):
        bad = ReductionRule(
            "op",
            ";",
            "dia",
            Template(2, 1, Modal("dia", 2, (Modal("dia", 1, (Var(1),)),))),
        )
        verdict = verify_reduction_rule(bad, crisp_b2, n=2)
        assert verdict.status == "fails"
        c = verdict.counterexample
        gammas = tuple(
            tuple(fvalue_from_json(Kind.POWERSET, v) for v in g) for g in c["gammas"]
        )
        sigma = tuple(c["sigmas"][0])
        fops = crisp_b2.fops(2)
        out = apply_op(crisp_b2.ops[";"], gammas, fops)
        from mvdl.semantics import apply_lifting

        lhs = tuple(
            apply_lifting(crisp_b2.liftings["dia"], [sigma], out[x], crisp_b2, 2)
            for x in range(2)
        )
        assert list(lhs) == c["lhs"]
        assert c["lhs"] != c["rhs"]


def _swapped(rule) -> ReductionRule:
    """The rule with /\\ and \\/ swapped in its template, and slots 1 and
    2 where it has two."""
    swap = {"/\\": "\\/", "\\/": "/\\"}
    binary = rule.template.n == 2

    def walk(node):
        if isinstance(node, Modal):
            action = 3 - node.action if binary else node.action
            return Modal(node.lifting, action, tuple(map(walk, node.args)))
        if isinstance(node, Conn):
            return Conn(swap.get(node.symbol, node.symbol), tuple(map(walk, node.args)))
        return node

    template = Template(rule.template.n, rule.template.k, walk(rule.template.body))
    return ReductionRule(rule.target_kind, rule.target, rule.lifting, template)


def _axiom_instance(config, rule):
    """lhs <-> rhs of a rule over atoms a, b and props p1.., with q as the
    test argument of a test rule."""
    props = tuple(Prop(f"p{i}") for i in range(1, config.liftings[rule.lifting].arity + 1))
    if rule.target_kind == "test":
        lhs = Modal(rule.lifting, sx.Test(rule.target, Prop("q")), props)
        rhs = instantiate(rule.template, (), (Prop("q"),) + props)
    else:
        acts = tuple(map(Atomic, "ab"[: config.ops[rule.target].arity]))
        lhs = Modal(rule.lifting, Op(rule.target, acts), props)
        rhs = instantiate(rule.template, acts, props)
    return Conn("/\\", (Conn("->", (lhs, rhs)), Conn("->", (rhs, lhs))))


class TestRuleBudget:
    def test_rule_sweep_counts_coalgebra_tuples(self, game_l2):
        # 175 monotone values at two states give C = 30,625 coalgebras, few
        # enough, but `+` sweeps C**2 operand pairs: refused before it starts
        rule = builtin_rules(game_l2).rules[("op", "+", "dia")]
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="coalgebra tuples") as err:
            verify_reduction_rule(rule, game_l2, n=2)
        assert err.value.count == 30_625**2
        assert time.perf_counter() - t0 < 10

    def test_one_slot_rule_fits_where_two_do_not(self, labelled_l2):
        # C = 81 at two states: 81 <= 100 < 81**2
        rules = builtin_rules(labelled_l2).rules
        assert verify_reduction_rule(rules[("op", "~", "dia")], labelled_l2, budget=100).ok
        with pytest.raises(BudgetExceeded) as err:
            verify_reduction_rule(rules[("op", ";", "dia")], labelled_l2, budget=100)
        assert err.value.count == 81**2


# the presets of the benchmark's verify-rules requests, over their algebras
REGISTRY_ALGEBRAS = {
    "pdl-crisp": "B2", "pdl-labelled": "L2", "pdl-threshold": "L2", "game": "L2",
    "instantial": "B2",
}


def _mutant_registry(config) -> RuleRegistry:
    """The builtin registry with every other rule ``_swapped``, so most
    groups mix rules that hold with rules that fail."""
    mutant = RuleRegistry(config)
    for i, rule in enumerate(builtin_rules(config).rules.values()):
        mutant.add(_swapped(rule) if i % 2 == 0 else rule)
    return mutant


def _facts(verdict) -> tuple:
    """What a grouped sweep keeps of each rule's own: status, cases,
    counterexample and blocks (seconds and vectors are the group's)."""
    return verdict.status, verdict.cases, verdict.counterexample, verdict.detail.get("blocks")


class TestGroupedRegistry:
    """``verify_registry`` sweeps each shape once, in one plan, and gives
    each rule the verdict of its own sweep."""

    @pytest.mark.parametrize(
        "mode, seed", [("exhaustive", DEFAULT_SEED), ("random", 3), ("random", 11)]
    )
    @pytest.mark.parametrize("mutant", [False, True], ids=["builtin", "mutant"])
    @pytest.mark.parametrize(
        "preset_name, n",
        [(name, 1) for name in REGISTRY_ALGEBRAS]
        + [("pdl-crisp", 2), ("pdl-labelled", 2), ("pdl-threshold", 2)],
    )
    def test_each_rule_gets_its_own_verdict(self, preset_name, n, mutant, mode, seed):
        config = make_preset(preset_name, algebra_by_name(REGISTRY_ALGEBRAS[preset_name]))
        registry = _mutant_registry(config) if mutant else builtin_rules(config)
        sweep = dict(n=n, mode=mode, trials=40, seed=seed)
        got = verify_registry(registry, **sweep)
        assert list(got) == list(registry.rules)
        for key, rule in registry.rules.items():
            assert _facts(got[key]) == _facts(verify_reduction_rule(rule, config, **sweep)), key
            if n == 1:  # small enough for the case-by-case reference
                status, cases, counter = reference_rule_sweep(rule, config, **sweep)
                if counter is not None:
                    if "gammas" in counter:
                        counter["gammas"] = [
                            [fvalue_to_json(config.kind, v) for v in g] for g in counter["gammas"]
                        ]
                    counter = {"rule": list(key), **counter}
                assert (got[key].status, got[key].cases, got[key].counterexample) == (
                    status, cases, counter,
                ), key
        if mutant:  # rules that hold and rules that fail
            held = "holds" if mode == "exhaustive" else "holds-up-to-bound"
            assert {v.status for v in got.values()} == {"fails", held}

    def test_mutant_groups_mix_verdicts_and_failing_blocks(self, threshold_l2):
        # the two-slot group of pdl-threshold/L2 at n = 2 holds rules that
        # hold and rules that fail at blocks 16 and 243 of one sweep
        got = verify_registry(_mutant_registry(threshold_l2), n=2)
        binary = {key[1:]: got[key] for key in got if key[1] in "+;"}
        assert {key: (v.status, v.detail["blocks"]) for key, v in binary.items()} == {
            ("+", "dia_1_2"): ("fails", 16),
            (";", "dia_1_2"): ("holds", 6561),
            ("+", "dia_1"): ("holds", 6561),
            (";", "dia_1"): ("fails", 243),
        }
        # the rules that hold record the vectors of their group's one plan
        assert len({v.detail["vectors"] for v in binary.values() if v.ok}) == 1

    def test_a_failed_rule_stops_running_its_own_steps(self, labelled_l2, monkeypatch):
        plans = []

        class Recorded(semantics.Plan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

            def reset(self):  # the registry resets its plans after each sweep
                self.swept = self.entries()
                super().reset()

        monkeypatch.setattr(harness, "Plan", Recorded)
        # the mutant `+` rules fail at block 7 of 6561, the `;` rules beside
        # them hold; a `+` left-hand side meets 81 union cids when it runs on
        got = verify_registry(_mutant_registry(labelled_l2), n=2)
        plan = next(plan for plan in plans if len(plan.cids) == 2)
        entries = plan.swept
        for lid in ("box", "dia"):
            assert got["op", ";", lid].status == "holds"
            verdict = got["op", "+", lid]
            assert (verdict.status, verdict.detail["blocks"]) == ("fails", 7)
            assert entries[plan.compile(Modal(lid, Op("+", (1, 2)), (Var(1),)))] <= 7

    def test_a_group_stops_once_every_rule_has_failed(self, labelled_l2, monkeypatch):
        taken = []  # batches yielded, per sweep
        batches = harness._batches

        def counting(*args, **kwargs):
            taken.append(0)
            for batch in batches(*args, **kwargs):
                taken[-1] += 1
                yield batch

        monkeypatch.setattr(harness, "_batches", counting)
        rules = builtin_rules(labelled_l2).rules
        swapped = RuleRegistry(labelled_l2)
        for key in (("op", "+", "box"), ("op", "+", "dia")):
            swapped.add(_swapped(rules[key]))
        got = verify_registry(swapped, n=2)
        assert all(v.status == "fails" for v in got.values())
        solo = [verify_reduction_rule(rule, labelled_l2, n=2) for rule in swapped.rules.values()]
        assert [_facts(v) for v in got.values()] == list(map(_facts, solo))
        verify_reduction_rule(rules[("op", "+", "box")], labelled_l2, n=2)
        group, *alone, whole = taken
        assert group == max(alone) < whole

    def test_a_budget_refuses_one_shape_and_sweeps_the_others(self, labelled_l2):
        # C = 81 coalgebras at two states: the one-slot and test groups fit
        # budget 1000, the 81**2 pairs of the two-slot group do not
        registry = builtin_rules(labelled_l2)
        got = verify_registry(registry, n=2, budget=1000)
        refused = set()
        for key, rule in registry.rules.items():
            try:
                solo = verify_reduction_rule(rule, labelled_l2, n=2, budget=1000)
            except BudgetExceeded as exc:
                refused.add(key)
                detail = {"count": exc.count, "reason": str(exc)}
                assert (got[key].status, got[key].cases, got[key].detail) == (
                    harness.OVER_BUDGET, 0, detail,
                )
            else:
                assert _facts(got[key]) == _facts(solo), key
        assert {key[1] for key in refused} == {"+", ";"}
        assert all(got[key].status == "holds" for key in registry.rules.keys() - refused)


def _parity_mutant(config) -> RuleRegistry:
    """The mutant registry of ``sweep_parity.py``: every other rule with
    /\\ and \\/ swapped, * read as /\\ and its slots swapped."""
    return sweep_parity.mutant_registry({"syntax": sx, "reduction": reduction}, config)


REGISTRIES = {"builtin": builtin_rules, "mutant": _mutant_registry, "parity": _parity_mutant}


def _whole(verdicts: dict) -> dict:
    """Each rule's verdict but its seconds."""
    return {key: (v.status, v.cases, v.counterexample, v.detail) for key, v in verdicts.items()}


def _assert_reset(registry) -> None:
    """Every plan the registry keeps holds no id, table entry or step
    output, and runs the steps a fresh compilation runs."""
    for (n, mode, rules), (plan, at) in registry.plans.items():
        fresh, fresh_at = harness._rule_plan(rules, registry.config, n, mode)
        assert at == fresh_at
        assert (plan.values, plan.coalgs, plan.preds, plan.vecs) == ([], [], [], [])
        assert not any(plan._tables)
        assert plan.vals == [None] * len(fresh.vals)
        steps = [[pos for pos, _ in group] for group in plan.groups]
        assert steps == [[pos for pos, _ in group] for group in fresh.groups]


def _counted(monkeypatch) -> list:
    """The plans ``harness`` constructs from now on, in order."""
    made = []

    class Counted(semantics.Plan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "Plan", Counted)
    return made


class TestStoredPlans:
    """``verify_registry`` keeps each group's plan in the registry, reset
    after every sweep: a later call at the same n and mode compiles nothing
    and gives a fresh registry's verdicts."""

    SWEEPS = [("exhaustive", DEFAULT_SEED), ("random", 3), ("random", 11)]

    @pytest.mark.parametrize("kind", REGISTRIES)
    @pytest.mark.parametrize(
        "preset_name, n",
        [(name, 1) for name in REGISTRY_ALGEBRAS]
        + [("pdl-crisp", 2), ("pdl-labelled", 2), ("pdl-threshold", 2)],
    )
    def test_a_later_call_compiles_nothing_and_agrees(self, preset_name, n, kind, monkeypatch):
        config = make_preset(preset_name, algebra_by_name(REGISTRY_ALGEBRAS[preset_name]))
        make = REGISTRIES[kind]
        sweeps = [dict(n=n, mode=mode, trials=40, seed=seed) for mode, seed in self.SWEEPS]
        fresh = [_whole(verify_registry(make(config), **sweep)) for sweep in sweeps]
        made = _counted(monkeypatch)
        registry, swept = make(config), set()
        for i in (0, 1, 2, 0, 2, 1):  # the mode changes between calls
            before, mode = len(made), sweeps[i]["mode"]
            got = verify_registry(registry, **sweeps[i])
            assert (len(made) == before) == (mode in swept), i
            assert _whole(got) == fresh[i], i
            _assert_reset(registry)
            swept.add(mode)
        assert {mode for n, mode, _ in registry.plans} == swept

    @pytest.mark.parametrize("preset_name", REGISTRY_ALGEBRAS)
    def test_a_refused_group_is_kept_and_swept_later(self, preset_name, monkeypatch):
        config = make_preset(preset_name, algebra_by_name(REGISTRY_ALGEBRAS[preset_name]))
        registry = builtin_rules(config)
        refused = verify_registry(registry, n=1, budget=1)
        assert harness.OVER_BUDGET in {v.status for v in refused.values()}
        _assert_reset(registry)
        made = _counted(monkeypatch)
        got = verify_registry(registry, n=1)
        assert made == []
        assert _whole(got) == _whole(verify_registry(builtin_rules(config), n=1))

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("kind", ["builtin", "parity"])
    def test_a_sweep_that_raises_leaves_its_plan_reset(self, labelled_l2, monkeypatch, mode, kind):
        class Interrupted(Exception):
            pass

        fuse = [0]  # kernel calls left before one raises; 0: none does
        kernel_of = semantics.lifting_kernel

        def fused(spec, config):
            kernel = kernel_of(spec, config)

            def lifted(preds, values, n):
                if fuse[0]:
                    fuse[0] -= 1
                    if not fuse[0]:
                        raise Interrupted
                return kernel(preds, values, n)

            return lifted

        monkeypatch.setattr(semantics, "lifting_kernel", fused)
        make, sweep = REGISTRIES[kind], dict(n=1, mode=mode, trials=40)
        fresh = _whole(verify_registry(make(labelled_l2), **sweep))
        registry = make(labelled_l2)
        assert _whole(verify_registry(registry, **sweep)) == fresh
        stored = len(registry.plans)
        fuse[0] = 2
        with pytest.raises(Interrupted):
            verify_registry(registry, **sweep)
        assert fuse[0] == 0 and len(registry.plans) == stored
        _assert_reset(registry)
        made = _counted(monkeypatch)
        assert _whole(verify_registry(registry, **sweep)) == fresh
        assert made == []

    def test_two_threads_sweep_one_registry(self, labelled_l2, monkeypatch):
        sweep = dict(n=2, mode="exhaustive")
        fresh = _whole(verify_registry(_mutant_registry(labelled_l2), **sweep))
        registry = _mutant_registry(labelled_l2)
        verify_registry(registry, **sweep)  # the store holds every group's plan
        # both threads wait inside their first group's sweep for the other
        barrier, met = threading.Barrier(2, timeout=60), {}
        sweep_rules = harness._verify_rules

        def meeting(rules, plan, *args):
            if threading.get_ident() not in met:
                met[threading.get_ident()] = plan
                barrier.wait()
            return sweep_rules(rules, plan, *args)

        monkeypatch.setattr(harness, "_verify_rules", meeting)
        with ThreadPoolExecutor(2) as pool:
            calls = [pool.submit(verify_registry, registry, **sweep) for _ in range(2)]
            got = [call.result() for call in calls]
        assert [_whole(g) for g in got] == [fresh, fresh]
        first, second = met.values()
        assert first is not second  # one took the stored plan, one compiled its own
        _assert_reset(registry)

    def test_many_threads_sweep_one_registry(self, threshold_l2):
        # more threads than cores, switching often: a plan two sweeps shared
        # would mix their ids and tables and change a verdict
        sweeps = [dict(n=1, mode=mode, trials=40, seed=seed) for mode, seed in self.SWEEPS]
        fresh = [_whole(verify_registry(_parity_mutant(threshold_l2), **s)) for s in sweeps]
        registry = _parity_mutant(threshold_l2)

        def calls(first: int) -> list:
            return [_whole(verify_registry(registry, **sweeps[(first + i) % 3])) for i in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as pool:
                got = [pool.submit(calls, first) for first in range(6)]
                got = [call.result(timeout=120) for call in got]
        finally:
            sys.setswitchinterval(interval)
        for first, verdicts in enumerate(got):
            assert verdicts == [fresh[(first + i) % 3] for i in range(6)]
        _assert_reset(registry)

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("preset_name", REGISTRY_ALGEBRAS)
    def test_stored_plans_hold_no_ids_or_entries(self, preset_name, mode, monkeypatch):
        held = []  # the table entries each plan held when it was reset
        reset = semantics.Plan.reset

        def counting(plan):
            held.append(sum(map(len, plan._tables)) + len(plan.preds))
            reset(plan)

        monkeypatch.setattr(semantics.Plan, "reset", counting)
        config = make_preset(preset_name, algebra_by_name(REGISTRY_ALGEBRAS[preset_name]))
        registry = _parity_mutant(config)
        for _ in range(2):
            verify_registry(registry, n=1, mode=mode, trials=40)
            _assert_reset(registry)
        assert len(held) == 2 * len(registry.plans) and all(held)


@pytest.mark.parametrize("preset_name", ["pdl-crisp", "pdl-labelled"])
def test_rule_and_entailment_sweeps_agree(preset_name):
    # an axiom instance has a countermodel of at most two states exactly
    # when its rule fails at one or two states, mutants included
    config = make_preset(preset_name, algebra_by_name("L2"))
    rules = list(builtin_rules(config).rules.values())
    rules += [_swapped(rule) for rule in rules if rule.template.n == 2]
    failing = 0
    for rule in rules:
        fails = any(verify_reduction_rule(rule, config, n=n).status == "fails" for n in (1, 2))
        entailment = bounded_entailment([], _axiom_instance(config, rule), config, max_n=2)
        assert (entailment.status == "fails") == fails, rule.key
        failing += fails
    assert 0 < failing < len(rules)


@pytest.mark.parametrize("sweep", ["registry", "entailment"])
@pytest.mark.parametrize("preset, algebra, n", [
    ("pdl-crisp", "L2", 2),
    ("pdl-labelled", "L2", 2),
    ("pdl-threshold", "L2", 2),
    ("game", "B2", 2),
    ("instantial", "B2", 1),
])
def test_canonical_sweeps_intern_only_the_enumerated_values(preset, algebra, n, sweep, monkeypatch):
    # a tabled operation step reads its cids as base-V numbers, V being
    # len(plan.values), so no step of a sweep with slots may intern a value
    # beyond the enumeration of FX; the axiom instances list the right
    # operand of a composition, the rules the left one
    Sweep, seen = semantics.Plan.sweep, []

    def watched(plan, budget, models=False):
        V = len(list(plan.fops.enumerate()))
        for blocks in Sweep(plan, budget, models):
            if plan.cids:
                assert len(plan.values) == V
                seen.append(len(blocks))
            yield blocks

    monkeypatch.setattr(semantics.Plan, "sweep", watched)
    config = make_preset(preset, algebra_by_name(algebra))
    registry = builtin_rules(config)
    if sweep == "registry":
        verdicts = list(harness.verify_registry(registry, n=n).values())
    else:
        verdicts = [
            bounded_entailment([], _axiom_instance(config, rule), config, max_n=n)
            for rule in registry.rules.values()
        ]
    assert all(v.ok for v in verdicts) and seen


class TestTemplateEvaluation:
    def test_substitution_lemma(self, labelled_l2, instantial):
        # evaluating an instantiated template in a model agrees with the
        # direct template evaluation over interpreted coalgebras/predicates:
        # the two template-evaluation routes must coincide
        from mvdl.syntax import instantiate
        from conftest import random_template
        from reference_eval import ReferenceTemplateEval

        rng = random.Random(83)
        for config in (labelled_l2, instantial):
            for _ in range(150):
                n_states = rng.randint(1, 2)
                template = random_template(rng, config, n=2, k=2, depth=3)
                model = random_model(rng, config, n_states)
                session = model.session()
                actions = (parse("a", config.signature, "action"),
                           parse("b", config.signature, "action"))
                formulas = (parse("p", config.signature), parse("q", config.signature))
                via_formula = session.eval(instantiate(template, actions, formulas))
                tev = ReferenceTemplateEval(config, n_states)
                gammas = tuple(session.interpret(a) for a in actions)
                sigmas = tuple(session.eval(f) for f in formulas)
                via_template = tev.eval(template.body, gammas, sigmas)
                assert via_formula == via_template

    def test_mutation_battery_consistency(self, crisp_b2, labelled_l2):
        # whenever a mutated rule is falsified by the sweep, the bounded
        # model search must also refute the corresponding axiom instance
        from mvdl import syntax as sx
        from mvdl.reduction import _rewrite_modal

        def mutate(body):
            if isinstance(body, Conn) and body.symbol in ("/\\", "\\/"):
                other = "\\/" if body.symbol == "/\\" else "/\\"
                yield Conn(other, body.args)
            if isinstance(body, Conn) and body.symbol == "*":
                yield Conn("/\\", body.args)
            if isinstance(body, (Conn, Modal)):
                for i, arg in enumerate(body.args):
                    for m in mutate(arg):
                        args = list(body.args)
                        args[i] = m
                        if isinstance(body, Conn):
                            yield Conn(body.symbol, tuple(args))
                        else:
                            yield Modal(body.lifting, body.action, tuple(args))
            if isinstance(body, Var):
                yield Conn("1")

        checked_failing = 0
        for config in (crisp_b2, labelled_l2):
            registry = builtin_rules(config)
            for key, rule in list(registry.rules.items())[:6]:
                for mutant_body in list(mutate(rule.template.body))[:3]:
                    mutant = ReductionRule(
                        rule.target_kind, rule.target, rule.lifting,
                        Template(rule.template.n, rule.template.k, mutant_body),
                    )
                    verdict = verify_reduction_rule(mutant, config, n=2)
                    if verdict.status != "fails":
                        continue
                    checked_failing += 1
                    if rule.target_kind == "op":
                        atoms = [sx.Atomic(c) for c in "ab"[: config.ops[rule.target].arity]]
                        action = sx.Op(rule.target, tuple(atoms))
                    else:
                        action = sx.Test(rule.target, sx.Prop("q"))
                    k = config.liftings[rule.lifting].arity
                    props = [sx.Prop(f"p{i}" if i else "p") for i in range(k)]
                    lhs = sx.Modal(rule.lifting, action, tuple(props))
                    fake_registry = builtin_rules(config)
                    fake_registry.rules[key] = mutant
                    rhs = _rewrite_modal(lhs, fake_registry)
                    both = sx.Conn(
                        "/\\", (sx.Conn("->", (lhs, rhs)), sx.Conn("->", (rhs, lhs)))
                    )
                    entail = bounded_entailment([], both, config, max_n=2)
                    assert entail.status == "fails", key
        assert checked_failing >= 5


class TestOneStep:
    def _diamond_h(self, alg, alpha, n):
        return {
            p: alg.bigjoin(alg.tensor(p[x], alpha[x]) for x in range(n))
            for p in predicate_space(alg.m, n)
        }

    def test_diamond_roundtrip(self, L2):
        value = functor_ops(Kind.APOWERSET, 2, L2).drawer(random.Random(71))
        for _ in range(100):
            alpha = value()
            result = one_step_witness(
                "labelled-diamond", L2, 2, self._diamond_h(L2, alpha, 2)
            )
            assert result.satisfiable and result.alpha == alpha

    def test_diamond_join_violation_named(self, L2):
        H = self._diamond_h(L2, (1, 2), 2)
        H[(2, 2)] = 0  # break dia(p \/ q) <-> dia p \/ dia q
        result = one_step_witness("labelled-diamond", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom == "diamond-join"

    def test_diamond_constant_violation_named(self, L2):
        alpha = (2, 2)
        H = self._diamond_h(L2, alpha, 2)
        # joins stay consistent but scaling by the constant 1/2 breaks:
        # H(dia(p (*) 1/2)) must equal H(dia p) (*) 1/2
        H[(1, 1)] = 2
        result = one_step_witness("labelled-diamond", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom in ("diamond-join", "diamond-constant")

    def test_threshold_roundtrip(self, L2):
        rng = random.Random(73)
        for _ in range(100):
            alpha = tuple(rng.randrange(3) for _ in range(2))
            H = {}
            for r in (1, 2):
                for s in range(4):
                    acc = L2.bigjoin(alpha[x] for x in range(2) if s >> x & 1)
                    H[(r, s)] = 1 if L2.leq(r, acc) else 0
            result = one_step_witness("threshold", L2, 2, H)
            assert result.satisfiable and result.alpha == alpha

    def test_threshold_monotonicity_violation_named(self, L2):
        # H(dia_1 {x}) = 1 but H(dia_1/2 {x}) = 0; per-threshold state sets
        # keep the bottom and join axioms intact
        H = {(r, s): 1 if (r == 2 and s & 1) else 0 for r in (1, 2) for s in range(4)}
        result = one_step_witness("threshold", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom == "threshold-monotonicity"

    def test_threshold_bottom_violation_named(self, L2):
        H = {(r, s): 1 for r in (1, 2) for s in range(4)}
        result = one_step_witness("threshold", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom == "threshold-bottom"

    def test_threshold_join_violation_named(self, L2):
        H = {(r, s): 0 for r in (1, 2) for s in range(4)}
        H[(1, 3)] = 1  # true on the union, false on both parts
        result = one_step_witness("threshold", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom == "threshold-join"

    def test_eval_roundtrip(self, L2):
        value = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 2, L2).drawer(random.Random(79))
        preds = predicate_space(3, 2)
        for _ in range(100):
            alpha = value()
            H = {p: alpha[i] for i, p in enumerate(preds)}
            result = one_step_witness("monotone-eval", L2, 2, H)
            assert result.satisfiable and result.alpha == alpha

    def test_eval_monotonicity_violation_named(self, L2):
        preds = predicate_space(3, 2)
        H = {p: 0 for p in preds}
        H[(0, 1)] = 2  # below (2, 2) which still maps to 0
        result = one_step_witness("monotone-eval", L2, 2, H)
        assert not result.satisfiable
        assert result.violation.axiom == "eval-monotonicity"

    def test_unsupported_kind(self, B2):
        with pytest.raises(UnsupportedKind):
            one_step_witness("crisp-box", B2, 2, {})


class TestEntailment:
    def test_p_implies_box_p_has_countermodel(self, crisp_b2):
        phi = parse("p -> [a]p", crisp_b2.signature)
        verdict = bounded_entailment([], phi, crisp_b2, max_n=2)
        assert verdict.status == "fails"
        model = model_from_json(verdict.counterexample["model"])
        state = verdict.counterexample["state"]
        row = eval_formula(model, phi)
        assert row[state] != crisp_b2.truth.top

    def test_assumption_entails_itself(self, crisp_b2):
        p = parse("p", crisp_b2.signature)
        verdict = bounded_entailment([p], p, crisp_b2, max_n=2)
        assert verdict.status == "holds-up-to-bound"

    def test_nonempty_gamma_countermodel(self, crisp_b2):
        p = parse("p", crisp_b2.signature)
        q = parse("q", crisp_b2.signature)
        verdict = bounded_entailment([p], q, crisp_b2, max_n=2)
        assert verdict.status == "fails"
        state = verdict.counterexample["state"]
        model = model_from_json(verdict.counterexample["model"])
        assert eval_formula(model, p)[state] == crisp_b2.truth.top
        assert eval_formula(model, q)[state] != crisp_b2.truth.top

    def test_axiom_instances_hold(self, labelled_l2):
        registry = builtin_rules(labelled_l2)
        from mvdl.reduction import _rewrite_modal
        from mvdl import syntax as sx

        lhs = parse("<?t(q)> p", labelled_l2.signature)
        rhs = _rewrite_modal(lhs, registry)
        both = sx.Conn("/\\", (sx.Conn("->", (lhs, rhs)), sx.Conn("->", (rhs, lhs))))
        verdict = bounded_entailment([], both, labelled_l2, max_n=2)
        assert verdict.status == "holds-up-to-bound"

    def test_never_confirms_what_mutation_falsifies(self, crisp_b2):
        # corrupted choice axiom: the rule sweep and the model search must
        # both reject it
        from mvdl import syntax as sx

        bad = ReductionRule(
            "op",
            "+",
            "box",
            Template(
                2,
                1,
                Conn(
                    "\\/",
                    (Modal("box", 1, (Var(1),)), Modal("box", 2, (Var(1),))),
                ),
            ),
        )
        rule_verdict = verify_reduction_rule(bad, crisp_b2, n=2)
        assert rule_verdict.status == "fails"
        lhs = parse("[a+b] p", crisp_b2.signature)
        rhs = parse("[a]p \\/ [b]p", crisp_b2.signature)
        both = sx.Conn("/\\", (sx.Conn("->", (lhs, rhs)), sx.Conn("->", (rhs, lhs))))
        entail_verdict = bounded_entailment([], both, crisp_b2, max_n=2)
        assert entail_verdict.status == "fails"

    def test_budget_exceeded(self, labelled_l2):
        # a valid formula, so the sweep has to reach the over-budget carrier
        phi = parse("<a;b;c> p -> <a;b;c> p", labelled_l2.signature)
        with pytest.raises(BudgetExceeded):
            bounded_entailment([], phi, labelled_l2, max_n=2, budget=100)

    def test_random_mode(self, instantial):
        phi = parse("<a> p -> <a> p", instantial.signature)
        verdict = bounded_entailment(
            [], phi, instantial, max_n=2, mode="random", trials=300
        )
        assert verdict.status == "holds-up-to-bound"

    def test_countermodel_is_byte_stable(self, crisp_b2):
        phi = parse("p -> [a]p", crisp_b2.signature)
        v1 = bounded_entailment([], phi, crisp_b2, max_n=2)
        v2 = bounded_entailment([], phi, crisp_b2, max_n=2)
        assert v1.counterexample == v2.counterexample


class TestZeroCaseGuard:
    """A verdict other than "fails" is never reported from zero cases."""

    def test_rule_sweep_without_trials(self, labelled_l2):
        rule = builtin_rules(labelled_l2).rules[("op", ";", "dia")]
        with pytest.raises(InvalidParameter, match="trials"):
            verify_reduction_rule(rule, labelled_l2, n=2, mode="random", trials=0)

    def test_entailment_without_carriers(self, crisp_b2):
        phi = parse("p -> p", crisp_b2.signature)
        with pytest.raises(InvalidParameter, match="max_n"):
            bounded_entailment([], phi, crisp_b2, max_n=0)

    def test_separation_without_trials(self, crisp_b2):
        with pytest.raises(InvalidParameter, match="trials"):
            check_separation(
                [crisp_b2.liftings["box"]], crisp_b2, n=2, mode="random", trials=0
            )

    def test_safety_without_carriers(self, crisp_b2):
        with pytest.raises(InvalidParameter, match="max_n"):
            check_safety(crisp_b2.ops[";"], crisp_b2, max_n=0)

    def test_invariance_without_formulas(self, crisp_b2):
        model = Model(1, crisp_b2, atoms={"a": (0,)}, valuation={"p": (1,)})
        with pytest.raises(InvalidParameter, match="no case"):
            check_invariance(model, model, (0,), [])


@pytest.mark.parametrize(
    "sweep",
    [
        "verify_reduction_rule",
        "bounded_entailment",
        "check_safety",
        "check_separation",
        "verify_registry",
    ],
)
def test_misspelt_mode_is_rejected(sweep, labelled_l2):
    # any mode but "exhaustive" used to sample and report holds-up-to-bound
    registry = builtin_rules(labelled_l2)
    phi = parse("p -> [a]p", labelled_l2.signature)
    calls = {
        "verify_reduction_rule": lambda mode: verify_reduction_rule(
            registry.rules[("op", ";", "dia")], labelled_l2, n=2, mode=mode, trials=5
        ),
        "bounded_entailment": lambda mode: bounded_entailment(
            [], phi, labelled_l2, max_n=1, mode=mode, trials=5
        ),
        "check_safety": lambda mode: check_safety(
            labelled_l2.ops[";"], labelled_l2, max_n=1, mode=mode, trials=5
        ),
        "check_separation": lambda mode: check_separation(
            [labelled_l2.liftings["box"]], labelled_l2, n=1, mode=mode, trials=5
        ),
        "verify_registry": lambda mode: verify_registry(registry, n=1, mode=mode, trials=5),
    }
    with pytest.raises(InvalidParameter, match="'exhaustiv'"):
        calls[sweep]("exhaustiv")
    got = calls[sweep]("random")
    assert all(v.ok for v in (got.values() if isinstance(got, dict) else [got]))


class TestSampledBatches:
    """Sampled rule and entailment sweeps run their trials in batches of 1,
    2, 4, ... up to ``SAMPLED_BATCH``, each plan step once per batch.  The
    verdict, case count and first counterexample are the trial-by-trial
    reference's, wherever the first failure lies."""

    # wrong only where neither operand has a successor at some state: rare
    # at three states, so the first failure lies many batches in
    RARE = "<1>w1 \\/ <2>w1 \\/ ([1]0 /\\ [2]0) * ([1]0 /\\ [2]0)"
    # refuted only where p, q and r are 1 and a has no successor at a state
    SELDOM = "p * p * q * q * r * r * [a]0 * [a]0 -> 0"

    def _rare_rule(self, config):
        rule = builtin_rules(config).rules[("op", "+", "dia")]
        return ReductionRule(*rule.key, parse(self.RARE, config.signature, "template"))

    def _assert_rule_as_reference(self, rule, config, n, seed, trials=1000):
        got = verify_reduction_rule(rule, config, n=n, mode="random", trials=trials, seed=seed)
        status, cases, counter = reference_rule_sweep(
            rule, config, n, mode="random", trials=trials, seed=seed
        )
        assert (got.status, got.cases) == (status, cases)
        if counter is not None:
            counter["gammas"] = [
                [fvalue_to_json(config.kind, v) for v in g] for g in counter["gammas"]
            ]
            counter = {"rule": list(rule.key), **counter}
        assert got.counterexample == counter
        return got

    @pytest.mark.parametrize("seed, trial", [(5, 106), (1, 236), (17, 516)])
    def test_late_rule_failure_matches_reference(self, labelled_l2, seed, trial):
        # trial 106 is in the batch of trials 63..126, 236 in the first
        # batch of SAMPLED_BATCH trials and 516 four batches on
        got = self._assert_rule_as_reference(self._rare_rule(labelled_l2), labelled_l2, 3, seed)
        assert (got.status, got.cases) == ("fails", 3 * (trial + 1))

    def test_rule_failure_at_the_first_trial_matches_reference(self, labelled_l2):
        rule = builtin_rules(labelled_l2).rules[("op", "+", "dia")]
        body = parse("<1>w1 /\\ <2>w1", labelled_l2.signature, "template")
        wrong = ReductionRule(*rule.key, body)
        got = self._assert_rule_as_reference(wrong, labelled_l2, 2, DEFAULT_SEED, trials=50)
        assert (got.status, got.cases) == ("fails", 2)

    @pytest.mark.parametrize("cap", [1, 3, 128])
    def test_any_batch_cap_gives_the_reference_verdicts(self, labelled_l2, monkeypatch, cap):
        monkeypatch.setattr(harness, "SAMPLED_BATCH", cap)
        rare = self._rare_rule(labelled_l2)
        self._assert_rule_as_reference(rare, labelled_l2, 3, 5, trials=300)
        self._assert_rule_as_reference(rare, labelled_l2, 3, 5, trials=100)  # holds
        phi = parse(self.SELDOM, labelled_l2.signature)
        for trials in (60, 200):  # holds, then fails at trial 78
            self._assert_entailment_as_reference(phi, labelled_l2, 2, trials)

    def _assert_entailment_as_reference(self, phi, config, seed, trials=1000):
        got = bounded_entailment([], phi, config, max_n=3, mode="random", trials=trials, seed=seed)
        status, cases, counter = reference_entailment(
            [], phi, config, 3, mode="random", trials=trials, seed=seed
        )
        assert (got.status, got.cases, got.counterexample) == (status, cases, counter)
        return got

    @pytest.mark.parametrize(
        "text, seed, trial",
        [
            (SELDOM, 28, 3),
            (SELDOM, 2, 78),
            (SELDOM, 4, 368),
            # the batch's earliest countermodel is not on the plan of the
            # batch's first trial, which fails later in the batch too
            ("p * p * q * q * [a]0 * [a]0 -> 0", 16, 41),
            ("p * p * q * q * [a]0 * [a]0 -> 0", 12, 90),
        ],
    )
    def test_entailment_over_mixed_sizes_matches_reference(self, labelled_l2, text, seed, trial):
        # sizes 1..3 are drawn per trial, so each batch runs on three plans
        # and its first countermodel is the least failing trial over them
        phi = parse(text, labelled_l2.signature)
        got = self._assert_entailment_as_reference(phi, labelled_l2, seed)
        assert (got.status, got.cases) == ("fails", trial + 1)

    @pytest.mark.parametrize("seed", [14, 5, 1, 17])
    def test_a_failing_sweep_draws_few_trials_past_its_failure(
        self, labelled_l2, monkeypatch, seed
    ):
        sigmas = []  # one sigma per trial: the rule has one variable

        def counting(rng, m, n):
            draw = predicate_drawer(rng, m, n)
            return lambda: sigmas.append(None) or draw()

        monkeypatch.setattr(harness, "predicate_drawer", counting)
        rule = self._rare_rule(labelled_l2)
        got = verify_reduction_rule(rule, labelled_l2, n=3, mode="random", trials=1000, seed=seed)
        assert got.status == "fails"
        j = got.cases // 3 - 1
        assert len(sigmas) <= min(2 * j + 1, j + harness.SAMPLED_BATCH)

    @pytest.mark.parametrize("seed", [28, 2, 4])
    def test_a_failing_entailment_draws_few_models_past_its_failure(
        self, labelled_l2, monkeypatch, seed
    ):
        sizes = []  # one carrier size per trial

        def counting(rng, lo, hi):
            draw = int_drawer(rng, lo, hi)
            return lambda: sizes.append(None) or draw()

        monkeypatch.setattr(harness, "int_drawer", counting)
        phi = parse(self.SELDOM, labelled_l2.signature)
        got = bounded_entailment(
            [], phi, labelled_l2, max_n=3, mode="random", trials=1000, seed=seed
        )
        assert got.status == "fails"
        j = got.cases - 1
        assert len(sizes) <= min(2 * j + 1, j + harness.SAMPLED_BATCH)
