"""The rule sweep's template plan against the case-by-case reference."""

import random
from dataclasses import replace
from itertools import chain, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl import syntax as sx
from mvdl import functors, harness, semantics
from mvdl.algebra import algebra_by_name, build_builtin
from mvdl.errors import ArityMismatch, InvalidParameter, UnknownIdentifier
from mvdl.harness import verify_reduction_rule
from mvdl.jsonio import fvalue_to_json
from mvdl.presets import make_preset
from mvdl.reduction import ReductionRule, builtin_rules
from mvdl.semantics import EvalSession, Model, Plan

from conftest import ANY_SPACE, random_template, run_at
from reference_eval import ReferenceTemplateEval, reference_rule_sweep

# one configuration per preset; the algebras carry extras and constants, and
# the instantial preset has inst3, so keys combine up to three argument ids
_L2X = build_builtin("lukasiewicz", 2, chi=(0, 1, 2), constants=(1,))
_B2X = build_builtin("boolean", chi=(0, 1), constants=(0, 1))
CONFIGS = {
    "pdl-crisp": make_preset("pdl-crisp", _L2X),
    "pdl-labelled": make_preset("pdl-labelled", _L2X),
    "pdl-threshold": make_preset("pdl-threshold", algebra_by_name("L2")),
    "game": make_preset("game", _L2X),
    "instantial": make_preset("instantial", _B2X, max_k=2),
}


def _sprinkle(body, truth, rng):
    """Wrap some subterms in the algebra's extras and turn some variables
    into its constants."""
    extras, constants = sorted(truth.extras), sorted(truth.constants)

    def walk(node):
        if isinstance(node, sx.Conn) and node.args:
            node = sx.Conn(node.symbol, tuple(walk(a) for a in node.args))
        elif isinstance(node, sx.Modal):
            node = sx.Modal(node.lifting, node.action, tuple(walk(a) for a in node.args))
        elif constants and rng.random() < 0.15:
            return sx.Conn(rng.choice(constants))
        if extras and rng.random() < 0.2:
            node = sx.Conn(rng.choice(extras), (node,))
        return node

    return walk(body)


def _swap_slots(node):
    if isinstance(node, sx.Modal):
        return sx.Modal(node.lifting, 3 - node.action, tuple(_swap_slots(a) for a in node.args))
    if isinstance(node, sx.Conn):
        return sx.Conn(node.symbol, tuple(_swap_slots(a) for a in node.args))
    return node


@st.composite
def templates(draw):
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, slots, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    body = random_template(rng, config, n=slots, k=k, depth=3).body
    return config, n, slots, k, _sprinkle(body, config.truth, rng), rng


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(templates())
def test_every_step_matches_reference(case):
    config, n, slots, k, body, rng = case
    fops = config.fops(n)
    plan = Plan(config, n, slots, k, canonical=True)
    plan.compile(body)
    sweep = plan.sweep(ANY_SPACE)
    first = next(sweep)  # the case space, set up, at the sweep's first block list
    preds, C = plan.preds, len(plan.coalgs)
    P = len(preds)
    space = list(product(range(P), repeat=k))
    S = len(space)
    value = fops.drawer(rng)
    reference = ReferenceTemplateEval(config, n)
    nodes = [(node, pos) for node, (pos, _) in plan._pos.items() if not isinstance(node, tuple)]

    def drawn():  # two drawn outer assignments, each at three drawn slot-1 cids
        for _ in range(2):
            blocks = [rng.randrange(C) for _ in range(3)]
            run_at(plan, [rng.randrange(C) for _ in range(slots - 1)], blocks)
            yield blocks

    for blocks in chain([first], drawn()):
        outer = tuple(map(plan.decode, plan.cids[1:]))
        for node, pos in nodes:
            ids = plan.vals[pos]
            # a step that does not read slot 1 holds one id, standing for each block
            assert isinstance(ids, int) or len(ids) == len(blocks), node
            for b, cid in enumerate(blocks):
                gammas = (plan.decode(cid),) + outer
                vector = plan.block(pos, b)
                assert len(vector) == S, node
                got = [preds[i] for i in vector]
                want = [
                    reference.eval(node, gammas, tuple(preds[i] for i in combo))
                    for combo in space
                ]
                assert got == want, (node, cid)
    # sampled cases, as a plan that is not canonical runs them: every slot
    # and variable holds one id per position, position i being case i
    sampled = Plan(config, n, slots, k)
    sampled.compile(body)
    cases = [
        (
            tuple(tuple(value() for _ in range(n)) for _ in range(slots)),
            tuple(preds[rng.randrange(P)] for _ in range(k)),
        )
        for _ in range(rng.randrange(1, 6))
    ]
    columns = [[gammas[s] for gammas, _ in cases] for s in range(slots)]
    sampled.run_cases(len(cases), columns, [[sigmas[v] for _, sigmas in cases] for v in range(k)])
    for node, (pos, _) in sampled._pos.items():
        if isinstance(node, tuple):
            continue
        got = sampled.vals[pos]
        assert len(got) == len(cases), node
        for i, (gammas, sigmas) in enumerate(cases):
            assert sampled.case(i) == (list(gammas), list(sigmas))
            assert sampled.preds[got[i]] == reference.eval(node, gammas, sigmas), node
    gammas, sigmas = cases[0]
    # the same case through a session: the template instantiated with atoms
    # and propositions, in a model interpreting them as gammas and sigmas
    atoms = [f"a{s}" for s in range(1, slots + 1)]
    props = [f"p{v}" for v in range(1, k + 1)]
    model = Model(n, config, dict(zip(atoms, gammas)), dict(zip(props, sigmas)))
    formula = sx.instantiate(
        sx.Template(slots, k, body), map(sx.Atomic, atoms), map(sx.Prop, props)
    )
    assert EvalSession(model).eval(formula) == reference.eval(body, gammas, sigmas)


@st.composite
def rules(draw):
    """A builtin rule, or one with a random body of the same shape; swept
    exhaustively at one state (two for pdl-crisp) or sampled at two."""
    name = draw(st.sampled_from(sorted(CONFIGS)))
    config = CONFIGS[name]
    registry = builtin_rules(config)
    rule = registry.rules[draw(st.sampled_from(sorted(registry.rules)))]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        template = rule.template
        body = random_template(rng, config, n=max(template.n, 1), k=template.k, depth=3).body
        if template.n == 0:  # test rules have no slots
            body = _sprinkle(_drop_modals(body), config.truth, rng)
        rule = ReductionRule(
            rule.target_kind, rule.target, rule.lifting,
            sx.Template(template.n, template.k, body),
        )
    mode = draw(st.sampled_from(("exhaustive", "random")))
    n = 2 if mode == "random" or name == "pdl-crisp" else 1
    return config, rule, n, mode, draw(st.integers(0, 2**16))


def _drop_modals(node):
    if isinstance(node, sx.Modal):
        return _drop_modals(node.args[0])
    if isinstance(node, sx.Conn):
        return sx.Conn(node.symbol, tuple(_drop_modals(a) for a in node.args))
    return node


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules())
def test_sweep_matches_reference(case):
    config, rule, n, mode, seed = case
    got = verify_reduction_rule(rule, config, n=n, mode=mode, trials=40, seed=seed)
    status, cases, counter = reference_rule_sweep(
        rule, config, n, mode=mode, trials=40, seed=seed
    )
    assert (got.status, got.cases) == (status, cases)
    if counter is None:
        assert got.counterexample is None
        return
    if "gammas" in counter:
        counter["gammas"] = [
            [fvalue_to_json(config.kind, v) for v in g] for g in counter["gammas"]
        ]
    assert got.counterexample == {"rule": list(rule.key), **counter}


def test_sampled_sweep_starting_afresh_keeps_verdicts(monkeypatch):
    # start the tables and drawers afresh every couple of trials
    monkeypatch.setattr(functors, "DRAW_TABLE_ENTRIES", 4)
    for name in ("pdl-labelled", "game", "instantial"):
        config = CONFIGS[name]
        for rule in builtin_rules(config).rules.values():
            body = rule.template.body
            mutant = ReductionRule(
                rule.target_kind, rule.target, rule.lifting,
                sx.Template(rule.template.n, rule.template.k, _swap_slots(body)),
            )
            for r in (rule, mutant) if rule.template.n == 2 else (rule,):
                got = verify_reduction_rule(r, config, n=2, mode="random", trials=60, seed=5)
                status, cases, _ = reference_rule_sweep(r, config, 2, "random", trials=60, seed=5)
                assert (got.status, got.cases) == (status, cases), r.key


# -- pinned mutants --------------------------------------------------------
#
# Deliberately wrong rules and the first counterexample each gets in the
# canonical case order, recorded from the case-by-case sweep before rule
# templates were compiled.  A faster sweep must report the same case.


def _mutant(config, key, body):
    rule = builtin_rules(config).rules[key]
    return ReductionRule(*key, sx.Template(rule.template.n, rule.template.k, body))


def _labelled():
    return make_preset("pdl-labelled", algebra_by_name("L2"))


def test_pinned_choice_with_meet_for_join():
    config = _labelled()
    template = sx.parse("<1:dia> w1 /\\ <2:dia> w1", config.signature, "template")
    verdict = verify_reduction_rule(_mutant(config, ("op", "+", "dia"), template.body), config)
    assert (verdict.status, verdict.cases) == ("fails", 24)
    assert verdict.counterexample == {
        "rule": ["op", "+", "dia"],
        "gammas": [[[0, 0], [0, 1]], [[0, 0], [0, 0]]],
        "sigmas": [[0, 2]],
        "lhs": [0, 1],
        "rhs": [0, 0],
    }


def test_pinned_composition_with_slots_swapped():
    config = _labelled()
    template = sx.parse("<2:dia> <1:dia> w1", config.signature, "template")
    verdict = verify_reduction_rule(_mutant(config, ("op", ";", "dia"), template.body), config)
    assert (verdict.status, verdict.cases) == ("fails", 1580)
    assert verdict.counterexample == {
        "rule": ["op", ";", "dia"],
        "gammas": [[[0, 0], [2, 0]], [[0, 0], [0, 1]]],
        "sigmas": [[2, 0]],
        "lhs": [0, 0],
        "rhs": [0, 1],
    }


def test_pinned_threshold_composition_with_slots_swapped():
    config = make_preset("pdl-threshold", algebra_by_name("L3"))
    key = ("op", ";", "dia_2_3")
    body = _swap_slots(builtin_rules(config).rules[key].template.body)
    verdict = verify_reduction_rule(_mutant(config, key, body), config)
    assert (verdict.status, verdict.cases) == ("fails", 4198)
    assert verdict.counterexample == {
        "rule": list(key),
        "gammas": [[[0, 0], [3, 0]], [[0, 0], [0, 2]]],
        "sigmas": [[1, 0]],
        "lhs": [0, 0],
        "rhs": [0, 1],
    }


def test_pinned_instantial_union_with_meet_for_join():
    config = make_preset("instantial", max_k=1)
    key = ("op", "+", "inst2")
    body = builtin_rules(config).rules[key].template.body
    verdict = verify_reduction_rule(_mutant(config, key, sx.Conn("/\\", body.args)), config)
    assert (verdict.status, verdict.cases) == ("fails", 8278)
    assert verdict.counterexample == {
        "rule": list(key),
        "gammas": [[[], [1]], [[], [0]]],
        "sigmas": [[1, 0], [1, 0]],
        "lhs": [0, 1],
        "rhs": [0, 0],
    }


def test_pinned_test_rule_with_meet_for_tensor():
    # recorded before a test rule swept one sigma-space with its test
    # argument as the first variable; the counterexample decodes it back
    config = _labelled()
    template = sx.parse("w1 /\\ w2", config.signature, "template")
    verdict = verify_reduction_rule(
        _mutant(config, ("test", "t", "dia"), template.body), config, n=2
    )
    assert (verdict.status, verdict.cases) == ("fails", 22)
    assert verdict.counterexample == {
        "rule": ["test", "t", "dia"],
        "sigmas": [[0, 1]],
        "test_argument": [0, 1],
        "lhs": [0, 0],
        "rhs": [0, 1],
    }


# Recorded before the sweep ran slot 1 as one block list; checked with slot
# 1's cids in one block list, one per list, and two per list (20 ids over
# the 9 sigmas at two states).
@pytest.mark.parametrize("sweep_ids", [None, 1, 20])
@pytest.mark.parametrize(
    "text, cases, gammas, sigmas, lhs, rhs",
    [
        # a modality over slot 1 whose keys read slot 1 too
        ("<1:dia> <1:dia> w1", 40, [[[0, 0], [0, 2]], [[0, 0], [0, 0]]], [[0, 1]], [0, 0], [0, 1]),
        # a side that never reads slot 1
        ("<2:dia> w1", 1464, [[[0, 0], [0, 0]], [[0, 0], [0, 1]]], [[0, 2]], [0, 0], [0, 1]),
    ],
)
def test_pinned_slot_1_shapes(monkeypatch, sweep_ids, text, cases, gammas, sigmas, lhs, rhs):
    if sweep_ids is not None:
        monkeypatch.setattr(semantics, "SWEEP_IDS", sweep_ids)
    config = _labelled()
    template = sx.parse(text, config.signature, "template")
    verdict = verify_reduction_rule(_mutant(config, ("op", ";", "dia"), template.body), config)
    assert (verdict.status, verdict.cases) == ("fails", cases)
    assert verdict.counterexample == {
        "rule": ["op", ";", "dia"], "gammas": gammas, "sigmas": sigmas, "lhs": lhs, "rhs": rhs,
    }


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_lifting_rows_outside_the_truth_algebra_are_rejected(labelled_l2, mode):
    # over B2 truths, [~1]w1 folds in L2 and yields 2 where ~1 has no
    # successor; every predicate is interned lazily or up front, and
    # neither may take such a row for a predicate
    config = replace(labelled_l2, truth=algebra_by_name("B2"))
    rule = ReductionRule("op", "~", "box", sx.Template(1, 1, sx.Modal("box", 1, (sx.Var(1),))))
    with pytest.raises(InvalidParameter, match="outside the truth algebra"):
        verify_reduction_rule(rule, config, n=1, mode=mode, trials=20)


def test_malformed_templates_are_rejected_before_sweeping(labelled_l2):
    for body, error in (
        (sx.Modal("dia", 2, (sx.Var(1),)), InvalidParameter),  # ~ has one slot
        (sx.Var(2), InvalidParameter),  # one variable
        (sx.Conn("??", (sx.Var(1),)), UnknownIdentifier),
        (sx.Modal("dia", 1, (sx.Var(1), sx.Var(1))), ArityMismatch),
    ):
        rule = ReductionRule("op", "~", "dia", sx.Template(1, 1, body))
        with pytest.raises(error):
            verify_reduction_rule(rule, labelled_l2, n=1)


# -- first failures inside a block -------------------------------------------
#
# A canonical plan compares one vector id per block, then the first
# differing sigma-position inside the first differing block.  Each mutant
# below first fails at sigma-position s > 0 of a block j > 0 (block j being
# slot-1 cid j % C at the (j // C)-th assignment of slot 2), so both steps
# of that search decide the reported case.


def _swap_connectives(node):
    swapped = {"/\\": "\\/", "\\/": "/\\"}
    if isinstance(node, sx.Conn) and node.args:
        args = tuple(_swap_connectives(a) for a in node.args)
        return sx.Conn(swapped.get(node.symbol, node.symbol), args)
    if isinstance(node, sx.Modal):
        return sx.Modal(node.lifting, node.action, tuple(map(_swap_connectives, node.args)))
    return node


@pytest.mark.parametrize(
    "preset, algebra, key, mutate, block, sigma",
    [
        ("pdl-threshold", "L2", ("op", ";", "dia_1_2"), _swap_connectives, 83, 1),
        ("pdl-crisp", "L2", ("op", ";", "dia"), _swap_slots, 18, 3),
        ("instantial", None, ("op", "+", "inst2"), _swap_connectives, 2, 10),
        ("instantial", None, ("op", "&", "inst2"), _swap_slots, 516, 10),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else getattr(v, "__name__", v),
)
def test_first_failure_inside_a_block_matches_reference(preset, algebra, key, mutate, block, sigma):
    config = make_preset(preset, algebra_by_name(algebra)) if algebra else make_preset(preset)
    rule = builtin_rules(config).rules[key]
    mutant = _mutant(config, key, mutate(rule.template.body))
    got = verify_reduction_rule(mutant, config, n=2)
    status, cases, counter = reference_rule_sweep(mutant, config, 2)
    counter["gammas"] = [[fvalue_to_json(config.kind, v) for v in g] for g in counter["gammas"]]
    want = (status, cases, {"rule": list(key), **counter})
    assert (got.status, got.cases, got.counterexample) == want
    S = (config.truth.m ** 2) ** config.lifting(rule.lifting).arity
    assert got.cases == 2 * (block * S + sigma + 1)


# -- vector tables ------------------------------------------------------------


def _threshold_composition_plan():
    """The exhaustive sweep of pdl-threshold/L3's ``; dia_2_3`` at n = 2, run
    to the end: 256 coalgebras on each slot, so 65,536 blocks, each of the
    4 predicates of w1."""
    config = make_preset("pdl-threshold", algebra_by_name("L3"))
    rule = builtin_rules(config).rules["op", ";", "dia_2_3"]
    plan = Plan(config, 2, 2, 1, canonical=True)
    plan.compile(sx.Modal(rule.lifting, sx.Op(";", (1, 2)), (sx.Var(1),)))
    plan.compile(rule.template.body)
    blocks = sum(len(b) for b in plan.sweep(harness.DEFAULT_SWEEP_BUDGET))
    return plan, blocks


def test_vector_tables_compute_each_distinct_input_once():
    # a step that fell back to work per position or per block would compute
    # 65,536 entries; each computes one per distinct input it reads
    plan, blocks = _threshold_composition_plan()
    assert blocks == 65_536
    names = {pos: sx.render(node, plan.config.signature) for node, (pos, _) in plan._pos.items()
             if not isinstance(node, tuple)}
    assert {names[pos]: count for pos, count in plan.entries().items()} == {
        "<1;2:dia_2_3> w1": 256,
        "<2:dia_1> w1": 256,
        "<1:dia_2_3> <2:dia_1> w1": 4096,
        "<2:dia_2_3> w1": 256,
        "<1:dia_1> <2:dia_2_3> w1": 4096,
        "<1:dia_2_3> <2:dia_1> w1 \\/ <1:dia_1> <2:dia_2_3> w1": 206,
        "<1:dia_1> <2:dia_1> w1": 4096,
        "<1:dia_2_3> <2:dia_1> w1 \\/ <1:dia_1> <2:dia_2_3> w1 \\/ <1:dia_1> <2:dia_1> w1": 81,
    }
    assert len(plan.vecs) == 16


def test_exhaustive_verdicts_record_blocks_and_vectors():
    config = make_preset("pdl-threshold", algebra_by_name("L3"))
    rule = builtin_rules(config).rules["op", ";", "dia_2_3"]
    verdict = verify_reduction_rule(rule, config, n=2)
    assert (verdict.status, verdict.cases) == ("holds", 524_288)
    assert (verdict.detail["blocks"], verdict.detail["vectors"]) == (65_536, 16)
    mutant = _mutant(config, rule.key, _swap_slots(rule.template.body))
    failed = verify_reduction_rule(mutant, config)
    assert failed.status == "fails" and failed.detail["blocks"] >= 524
    sampled = verify_reduction_rule(rule, config, n=2, mode="random", trials=20)
    assert "blocks" not in sampled.detail and "vectors" not in sampled.detail
