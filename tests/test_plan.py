"""Sessions on the compiled plan against the recursive reference evaluator."""

import gc
import json
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl import syntax as sx
from mvdl.algebra import algebra_by_name, build_builtin
from mvdl.errors import IncompatibleVariant, InvalidParameter, UnknownAtom, UnknownIdentifier
from mvdl.harness import bounded_entailment, verify_reduction_rule
from mvdl.jsonio import formula_from_json, formula_to_json
from mvdl.presets import make_preset
from mvdl.reduction import ReductionRule, builtin_rules
from mvdl.semantics import EvalSession, LiftingSpec, Model, Plan, eval_formula
from mvdl.syntax import parse

from conftest import random_model
from reference_eval import ReferenceSession

# one configuration per preset; the algebras carry extras and constants so
# that fuzzed formulas reach those connectives too
_L2X = build_builtin("lukasiewicz", 2, chi=(0, 1, 2), constants=(1,))
_B2X = build_builtin("boolean", chi=(0, 1), constants=(0, 1))
CONFIGS = {
    "pdl-crisp": make_preset("pdl-crisp", _L2X),
    "pdl-labelled": make_preset("pdl-labelled", _L2X),
    "pdl-threshold": make_preset("pdl-threshold", algebra_by_name("L2")),
    "game": make_preset("game", _L2X),
    "instantial": make_preset("instantial", _B2X, max_k=1),
}
# neighbourhood tables grow as m^(m^n); keep game carriers small
MAX_N = {"game": 2}

BINARY = ("/\\", "\\/", "*", "->")


@st.composite
def term_pools(draw, config):
    """Formulas and actions built bottom up, each new node drawing its
    subterms from the nodes built so far, so subterms are shared; some
    nodes are rebuilt as equal but distinct objects."""
    truth = config.truth
    formulas = [sx.Prop("p"), sx.Prop("q"), sx.TOP, sx.BOT]
    formulas += [sx.Conn(name) for name in sorted(truth.constants)]
    actions = [sx.Atomic("a"), sx.Atomic("b")]
    conns = list(BINARY) + sorted(truth.extras)

    def pick(pool):
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(("conn", "modal", "op", "test", "copy")))
        if kind == "conn":
            sym = draw(st.sampled_from(conns))
            arity = 2 if sym in BINARY else 1
            formulas.append(sx.Conn(sym, tuple(pick(formulas) for _ in range(arity))))
        elif kind == "modal":
            spec = config.liftings[draw(st.sampled_from(sorted(config.liftings)))]
            args = tuple(pick(formulas) for _ in range(spec.arity))
            formulas.append(sx.Modal(spec.id, pick(actions), args))
        elif kind == "op":
            spec = config.ops[draw(st.sampled_from(sorted(config.ops)))]
            actions.append(sx.Op(spec.id, tuple(pick(actions) for _ in range(spec.arity))))
        elif kind == "test":
            tid = draw(st.sampled_from(sorted(config.tests)))
            actions.append(sx.Test(tid, pick(formulas)))
        else:
            formulas.append(formula_from_json(formula_to_json(pick(formulas))))
    return formulas, actions


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    config = CONFIGS[name]
    formulas, actions = draw(term_pools(config))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sizes = draw(st.lists(st.integers(1, MAX_N.get(name, 3)), min_size=1, max_size=2))
    models = [random_model(rng, config, n) for n in sizes]
    order = draw(st.permutations(formulas + actions))
    return models, order


def _is_action(node) -> bool:
    return isinstance(node, (sx.Atomic, sx.Op, sx.Test))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_plan_matches_reference(case):
    models, order = case
    for model in models:
        session, reference = EvalSession(model), ReferenceSession(model)
        for node in order:
            if _is_action(node):
                assert session.interpret(node) == reference.interpret(node)
            else:
                want = reference.eval(node)
                assert session.eval(node) == want
                assert eval_formula(model, node) == want


def _never(vals):
    raise AssertionError("a step ran twice")


class TestPlan:
    def test_shared_subterms_are_one_step(self, labelled_l2):
        plan = Plan(labelled_l2, 1, ["a"], ["p"])
        # the two <a>p are distinct but equal objects
        phi = parse("<a> p /\\ <a> p", labelled_l2.signature)
        assert phi.args[0] is not phi.args[1]
        top = plan.compile(phi)
        assert len(plan.vals) == 4  # a, p, <a>p, /\
        assert plan.compile(parse("<a> p", labelled_l2.signature)) == top - 1

    def test_session_runs_only_pending_steps(self, labelled_l2):
        model = random_model(random.Random(3), labelled_l2, 2)
        session = EvalSession(model)
        session.eval(parse("<a> p", labelled_l2.signature))
        groups = session.plan.groups
        done = sum(map(len, groups))
        for group in groups:
            group[:] = [(pos, _never) for pos, _ in group]
        phi = parse("<a> p \\/ q", labelled_l2.signature)
        assert session.eval(phi) == ReferenceSession(model).eval(phi)
        # q and \/: a session's slots hold one cid per position, as its
        # variables do, so nothing is tiled
        assert sum(map(len, groups)) == done + 2

    def test_failed_eval_leaves_session_usable(self, crisp_b2):
        model = Model(1, crisp_b2, atoms={"a": (1,)}, valuation={"p": (1,)})
        session = model.session()
        with pytest.raises(UnknownIdentifier):
            session.eval(parse("<a> p /\\ q", crisp_b2.signature))
        with pytest.raises(UnknownAtom):
            session.eval(parse("<b> p", crisp_b2.signature))
        assert session.eval(parse("<a> p", crisp_b2.signature)) == (1,)
        assert len(session.plan.vals) == 3  # a, p, <a>p

    def test_failed_run_leaves_session_usable(self, labelled_l2):
        # over B2 truths, [a]p folds in L2 and yields 2 where a has no
        # successor: a step that fails when it runs, not when it compiles
        config = replace(labelled_l2, truth=algebra_by_name("B2"))
        model = Model(1, config, atoms={"a": ((0,),), "b": ((2,),)}, valuation={"p": (1,)})
        session = model.session()
        box = parse("[a] p", config.signature)
        for _ in range(2):
            with pytest.raises(InvalidParameter, match="outside the truth algebra"):
                session.eval(box)
            assert session.eval(parse("<b> p", config.signature)) == (1,)


def test_wrong_kind_lifting_raises(crisp_b2):
    liftings = dict(crisp_b2.liftings)
    liftings["dia"] = LiftingSpec("dia", 1, "diamond-labelled")
    config = replace(crisp_b2, liftings=liftings)
    model = Model(1, config, atoms={"a": (1,)}, valuation={"p": (1,)})
    with pytest.raises(IncompatibleVariant):
        eval_formula(model, parse("<a> p", config.signature))


def test_crisp_countermodel_is_unchanged():
    # the first countermodel in canonical order and the cases checked to
    # reach it, as the recursive evaluator found them
    crisp = make_preset("pdl-crisp", algebra_by_name("B2"))
    phi = parse("p -> [a]p", crisp.signature)
    verdict = bounded_entailment([], phi, crisp, max_n=2)
    assert verdict.status == "fails"
    assert verdict.cases == 10
    assert json.dumps(verdict.counterexample, sort_keys=True) == json.dumps(
        {
            "gamma": [],
            "model": {
                "algebra": "B2",
                "atoms": {"a": [0, 1]},
                "kind": "powerset",
                "n": 2,
                "preset": "pdl-crisp",
                "valuation": {"p": [0, 1]},
            },
            "phi": "p -> [a] p",
            "state": 1,
        },
        sort_keys=True,
    )
    one_state = bounded_entailment([], phi, crisp, max_n=1)
    assert (one_state.status, one_state.cases) == ("holds-up-to-bound", 4)


def test_sweeps_leave_no_reference_cycles():
    # a finished sweep's plan and tables are freed as soon as it returns,
    # not left to the cycle collector; these reach every slot-1 step shape
    # (block lists, tiles, spreads, tests beside slot 1, compositions),
    # and the drawers' tries and memos of sampled monotone and
    # double-powerset sweeps
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    game = make_preset("game", algebra_by_name("L2"))
    instantial = make_preset("instantial", algebra_by_name("B2"), max_k=1)

    def sweeps():
        for text in ("<1:dia> <1:dia> w1", "<2:dia> w1", "<1:dia> <2:dia> w1"):
            body = parse(text, config.signature, "template").body
            rule = ReductionRule("op", ";", "dia", sx.Template(2, 1, body))
            verify_reduction_rule(rule, config, n=2)
            verify_reduction_rule(rule, config, n=2, mode="random", trials=20)
        for text in ("<b;?t(<b>p)>p -> p", "<a;b>p -> <b>p", "<a;?t(<b>p)>p -> [b]p"):
            bounded_entailment([], parse(text, config.signature), config, max_n=2)
        for other, lifting in ((game, "dia"), (instantial, "inst1")):
            rule = builtin_rules(other).rules[("op", ";", lifting)]
            verify_reduction_rule(rule, other, n=2, mode="random", trials=300)

    gc.collect()
    gc.disable()
    try:
        sweeps()
        assert gc.collect() == 0
    finally:
        gc.enable()
