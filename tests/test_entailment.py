"""The bounded-entailment sweep against the model-by-model reference."""

import json
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl import functors, harness, semantics
from mvdl import syntax as sx
from mvdl.algebra import algebra_by_name, build_builtin
from mvdl.harness import DEFAULT_SWEEP_BUDGET, bounded_entailment
from mvdl.presets import make_preset
from mvdl.semantics import EvalSession, Model
from mvdl.syntax import parse

from conftest import random_formula, random_model
from reference_eval import ReferenceSession, reference_entailment

# one configuration per preset; the algebras carry extras and constants so
# that fuzzed formulas reach those connectives too
_L2X = build_builtin("lukasiewicz", 2, chi=(0, 1, 2), constants=(1,))
_B2X = build_builtin("boolean", chi=(0, 1), constants=(0, 1))
CONFIGS = {
    "pdl-crisp": make_preset("pdl-crisp", _B2X),
    "pdl-labelled": make_preset("pdl-labelled", _L2X),
    "pdl-threshold": make_preset("pdl-threshold", algebra_by_name("L2")),
    "game": make_preset("game", _L2X),
    "instantial": make_preset("instantial", _B2X, max_k=1),
}
# the reference builds a Model per case: sweep two states only where that
# stays small
MODELS_AT_TWO = 5000


def _models_at(config, n: int, atoms: int, props: int) -> int:
    values = sum(1 for _ in config.fops(n).enumerate())
    return (values**n) ** atoms * (config.truth.m**n) ** props


def _assert_same(config, gamma, phi, max_n, mode="exhaustive", trials=40, seed=0):
    got = bounded_entailment(gamma, phi, config, max_n=max_n, mode=mode, trials=trials, seed=seed)
    status, cases, counter = reference_entailment(
        gamma, phi, config, max_n, mode=mode, trials=trials, seed=seed
    )
    assert (got.status, got.cases) == (status, cases)
    assert json.dumps(got.counterexample, sort_keys=True) == json.dumps(counter, sort_keys=True)


@st.composite
def entailments(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    config = CONFIGS[name]
    rng = random.Random(draw(st.integers(0, 2**32)))
    atoms = ("a", "b")[: draw(st.integers(1, 2))]
    props = ("p", "q")[: draw(st.integers(1, 2))]
    gamma = [
        random_formula(rng, config, 2, atoms=atoms, props=props)
        for _ in range(draw(st.integers(0, 2)))
    ]
    phi = random_formula(rng, config, 3, atoms=atoms, props=props)
    if draw(st.booleans()):
        # most fuzzed entailments fail at once; these hold, so both sweeps
        # run to the end
        phi = sx.Conn("\\/", (gamma[0], phi)) if gamma else sx.Conn("->", (phi, phi))
    formulas = gamma + [phi]
    n_atoms = len(set().union(*map(sx.atoms_of, formulas)))
    n_props = len(set().union(*map(sx.props_of, formulas)))
    mode = draw(st.sampled_from(("exhaustive", "exhaustive", "random")))
    if mode == "random":
        # sampled models are evaluated one at a time, so larger carriers
        # stay cheap for both sweeps
        max_n = draw(st.integers(1, 4))
    else:
        max_n = draw(st.integers(1, 2))
        if _models_at(config, 2, n_atoms, n_props) > MODELS_AT_TWO:
            max_n = 1
    return config, gamma, phi, max_n, mode, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(entailments())
def test_sweep_matches_reference(case):
    config, gamma, phi, max_n, mode, seed = case
    _assert_same(config, gamma, phi, max_n, mode=mode, seed=seed)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_tests_on_props_star_and_constants_match_reference(name):
    # a test on a formula over the propositions makes the action differ
    # from valuation to valuation; iteration and the algebra's constants
    # and extras ride along, with and without assumptions
    config = CONFIGS[name]
    truth = config.truth
    t = sorted(config.tests)[0]
    star = next(spec.id for spec in config.ops.values() if spec.variant == "star")
    lid = next(spec.id for spec in config.liftings.values() if spec.arity == 1)
    q = sx.Prop("q")
    extra = sx.Conn(sorted(truth.extras)[0], (q,)) if truth.extras else q
    const = sx.Conn(sorted(truth.constants)[0]) if truth.constants else sx.TOP
    test = sx.Test(t, sx.Conn("\\/", (extra, const)))
    looped = sx.Op(star, (sx.Op(";", (sx.Atomic("a"), test)),))
    phi = sx.Conn("->", (sx.Modal(lid, looped, (sx.Prop("p"),)), sx.Prop("p")))
    gamma = [sx.Modal(lid, test, (sx.Prop("p"),))]
    max_n = 2 if _models_at(config, 2, 1, 2) <= MODELS_AT_TWO else 1
    for assumptions in ([], gamma):
        _assert_same(config, assumptions, phi, max_n)


def test_sampled_sweep_starting_afresh_keeps_verdicts(monkeypatch):
    # drop every interned id and drawn value every trial or two; constants
    # must stay valid
    monkeypatch.setattr(functors, "DRAW_TABLE_ENTRIES", 4)
    p, a = sx.Prop("p"), sx.Atomic("a")
    for name, config in sorted(CONFIGS.items()):
        truth = config.truth
        const = sx.Conn(max(truth.constants, key=truth.constants.get, default="1"))
        lid = sorted(config.liftings)[0]
        modal = sx.Modal(lid, a, (p,) * config.liftings[lid].arity)
        holds = sx.Conn("->", (sx.Conn("/\\", (const, modal)), modal))
        refuted = sx.Conn("->", (sx.Conn("/\\", (p, const)), modal))
        for gamma, phi in (([], holds), ([const], refuted), ([], refuted)):
            _assert_same(config, gamma, phi, 3, mode="random", trials=60, seed=5)


# -- pinned countermodels ----------------------------------------------------
#
# First countermodels in canonical order and the cases checked to reach
# them, recorded from the model-by-model sweep before entailment ran on ids.


def test_pinned_labelled_countermodel():
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    phi = parse("<a><b>p -> <b><a>p", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2)
    assert (verdict.status, verdict.cases) == ("fails", 817)
    assert verdict.counterexample == {
        "gamma": [],
        "model": {
            "algebra": "L2",
            "atoms": {"a": [[0, 0], [0, 1]], "b": [[0, 0], [2, 0]]},
            "kind": "apowerset",
            "n": 2,
            "preset": "pdl-labelled",
            "valuation": {"p": [2, 0]},
        },
        "phi": "<a> <b> p -> <b> <a> p",
        "state": 1,
    }


def test_pinned_countermodel_with_assumptions():
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    gamma = [parse(g, config.signature) for g in ("[?t(q)]p", "<a>q")]
    verdict = bounded_entailment(gamma, parse("<a>p", config.signature), config, max_n=2)
    assert (verdict.status, verdict.cases) == ("fails", 520)
    assert verdict.counterexample == {
        "gamma": ["[?t(q)] p", "<a> q"],
        "model": {
            "algebra": "L2",
            "atoms": {"a": [[0, 0], [2, 0]]},
            "kind": "apowerset",
            "n": 2,
            "preset": "pdl-labelled",
            "valuation": {"p": [0, 0], "q": [2, 0]},
        },
        "phi": "<a> p",
        "state": 1,
    }


def test_pinned_composition_countermodel():
    # recorded before operation outputs were composed against the right
    # operand: a;b has b, slot 1, as its right operand, and b;a has a
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    phi = parse("<a;b>p -> <b;a>p", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2)
    assert (verdict.status, verdict.cases) == ("fails", 817)
    assert verdict.counterexample == {
        "gamma": [],
        "model": {
            "algebra": "L2",
            "atoms": {"a": [[0, 0], [0, 1]], "b": [[0, 0], [2, 0]]},
            "kind": "apowerset",
            "n": 2,
            "preset": "pdl-labelled",
            "valuation": {"p": [2, 0]},
        },
        "phi": "<a;b> p -> <b;a> p",
        "state": 1,
    }


# Recorded before the sweep ran slot 1 as one block list.  Each is checked
# with slot 1's cids in one block list, one per list, and two per list
# (20 ids over the 9 valuations of one proposition at two states).
BLOCK_SIZES = pytest.mark.parametrize("sweep_ids", [None, 1, 20])


def _pinned(monkeypatch, sweep_ids, text):
    if sweep_ids is not None:
        monkeypatch.setattr(semantics, "SWEEP_IDS", sweep_ids)
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    return bounded_entailment([], parse(text, config.signature), config, max_n=2)


def _labelled_model(atoms, p):
    return {
        "algebra": "L2", "atoms": atoms, "kind": "apowerset", "n": 2,
        "preset": "pdl-labelled", "valuation": {"p": p},
    }


@BLOCK_SIZES
def test_pinned_test_reading_slot_1_beside_slot_1(monkeypatch, sweep_ids):
    # b is slot 1 and the test's argument <b>p reads it too
    verdict = _pinned(monkeypatch, sweep_ids, "<b;?t(<b>p)>p -> p")
    assert (verdict.status, verdict.cases) == ("fails", 111)
    assert verdict.counterexample == {
        "gamma": [],
        "model": _labelled_model({"b": [[0, 1], [0, 2]]}, [0, 2]),
        "phi": "<b;?t(<b> p)> p -> p",
        "state": 0,
    }
    verdict = _pinned(monkeypatch, sweep_ids, "<b;?t(<b>p)>p -> <b>(p /\\ <b>p)")
    assert (verdict.status, verdict.cases) == ("holds-up-to-bound", 738)


@BLOCK_SIZES
def test_pinned_test_reading_slot_1_beside_slot_2(monkeypatch, sweep_ids):
    verdict = _pinned(monkeypatch, sweep_ids, "<a;?t(<b>p)>p -> <b>p")
    assert (verdict.status, verdict.cases) == ("fails", 2385)
    assert verdict.counterexample == {
        "gamma": [],
        "model": _labelled_model({"a": [[0, 0], [1, 0]], "b": [[0, 2], [0, 0]]}, [2, 2]),
        "phi": "<a;?t(<b> p)> p -> <b> p",
        "state": 1,
    }


@BLOCK_SIZES
def test_pinned_composition_with_slot_1_on_the_right(monkeypatch, sweep_ids):
    verdict = _pinned(monkeypatch, sweep_ids, "<a;b>p -> <b>p")
    assert (verdict.status, verdict.cases) == ("fails", 2379)
    assert verdict.counterexample == {
        "gamma": [],
        "model": _labelled_model({"a": [[0, 0], [1, 0]], "b": [[0, 2], [0, 0]]}, [0, 2]),
        "phi": "<a;b> p -> <b> p",
        "state": 1,
    }


def test_a_test_step_tests_each_distinct_predicate_once(monkeypatch):
    # the test's table fills key by key, so over a whole exhaustive sweep
    # each predicate of each carrier size reaches apply_test once
    calls, test = Counter(), semantics.apply_test

    def counted(spec, pred, fops, truth):
        calls[fops.n, tuple(pred)] += 1
        return test(spec, pred, fops, truth)

    monkeypatch.setattr(semantics, "apply_test", counted)
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    phi = parse("<b;?t(<b>p)>p -> <b>p", config.signature)
    assert bounded_entailment([], phi, config, max_n=2).status == "holds-up-to-bound"
    assert {n for n, _ in calls} == {1, 2} and max(calls.values()) == 1
    # a fill that raises stores nothing, and the next lookup fills again
    fills = []

    def fill(key):
        fills.append(key)
        if len(fills) == 1:
            raise ValueError(key)
        return 2 * key

    table = semantics._Table(fill)
    with pytest.raises(ValueError):
        table[3]
    assert 3 not in table
    assert table[3] == 6 and fills == [3, 3]


# Proposition-free formulas: one valuation, so each block of a block list
# reads its lifting row at a single key.  Recorded before a block list was
# read with one itemgetter, as (status, cases, (n, atoms, state)) of the
# first countermodel.
PROPOSITION_FREE = {
    "pdl-crisp": {
        "<a>1 -> <a;b>1": ("fails", 3, (1, {"a": [1], "b": [0]}, 0)),
        "<a;b>1 -> <a>1": ("holds-up-to-bound", 260, None),
        "<a;b>1 -> <b>1": ("fails", 25, (2, {"a": [0, 1], "b": [1, 0]}, 1)),
        "<b>1 -> <b><b>1": ("fails", 4, (2, {"b": [0, 1]}, 1)),
    },
    "pdl-labelled": {
        "<a>1 -> <a;b>1": ("fails", 4, (1, {"a": [[1]], "b": [[0]]}, 0)),
        "<a;b>1 -> <a>1": ("holds-up-to-bound", 6570, None),
        "<a;b>1 -> <b>1": ("fails", 271, (2, {"a": [[0, 0], [1, 0]], "b": [[0, 2], [0, 0]]}, 1)),
        "<b>1 -> <b><b>1": ("fails", 2, (1, {"b": [[1]]}, 0)),
    },
    "pdl-threshold": {
        "<a>1 -> <a;b>1": ("fails", 7, (1, {"a": [[2]], "b": [[0]]}, 0)),
        "<a;b>1 -> <a>1": ("holds-up-to-bound", 6570, None),
        "<a;b>1 -> <b>1": ("fails", 514, (2, {"a": [[0, 0], [2, 0]], "b": [[0, 2], [0, 0]]}, 1)),
        "<b>1 -> <b><b>1": ("fails", 10, (2, {"b": [[0, 0], [2, 0]]}, 1)),
    },
    "game": {
        "<a>1 -> <a;b>1": ("fails", 4, (1, {"a": [[0, 1]], "b": [[0, 0]]}, 0)),
        "<a;b>1 -> <a>1": ("holds-up-to-bound", 1305, None),
        "<a;b>1 -> <b>1": ("fails", 7, (1, {"a": [[1, 1]], "b": [[0, 0]]}, 0)),
        "<b>1 -> <b><b>1": ("fails", 5, (2, {"b": [[0, 0, 0, 0], [0, 0, 0, 1]]}, 1)),
    },
    "instantial": {
        "<a>1 -> <a;b>1": ("fails", 9, (1, {"a": [[1]], "b": [[]]}, 0)),
        "<a;b>1 -> <a>1": ("holds-up-to-bound", 65552, None),
        "<a;b>1 -> <b>1": ("fails", 5, (1, {"a": [[0]], "b": [[]]}, 0)),
        "<b>1 -> <b><b>1": ("fails", 7, (2, {"b": [[], [1]]}, 1)),
    },
}


@pytest.mark.parametrize("name", sorted(PROPOSITION_FREE))
def test_pinned_proposition_free_entailments(name):
    config = make_preset(name, algebra_by_name("B2" if name in ("game", "instantial") else "L2"))
    # pdl-threshold has no default diamond: every modality names dia_1
    lifting = r"\1:dia_1>" if name == "pdl-threshold" else r"\1>"
    for text, pinned in PROPOSITION_FREE[name].items():
        phi = parse(re.sub(r"(<[^<>]+)>", lifting, text), config.signature)
        verdict = bounded_entailment([], phi, config, max_n=2)
        counter = verdict.counterexample
        if counter is not None:
            assert (counter["gamma"], counter["model"]["valuation"]) == ([], {})
            counter = (counter["model"]["n"], counter["model"]["atoms"], counter["state"])
        assert (verdict.status, verdict.cases, counter) == pinned, text


def _sampled_sweep(config, phi):
    verdict = bounded_entailment([], phi, config, max_n=14, mode="random", trials=20)
    assert (verdict.status, verdict.cases) == ("holds-up-to-bound", 20)


def _session(config, phi):
    model = random_model(random.Random(14), config, 14)
    assert EvalSession(model).eval(phi) == (config.truth.top,) * 14


@pytest.mark.parametrize("run", [_sampled_sweep, _session], ids=["sampled-sweep", "session"])
def test_large_sampled_carriers_stay_cheap(monkeypatch, run):
    # 3^14 predicates exist at 14 states; a sampled sweep and a session
    # evaluate one model at a time and must never build that space
    def small_only(m, n):
        assert n <= 8, f"predicate_space({m}, {n}) built"
        return space(m, n)

    space = functors.predicate_space
    for module in (functors, semantics, harness):
        monkeypatch.setattr(module, "predicate_space", small_only)
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    phi = parse("[a;b]p -> [a][b]p", config.signature)
    t0 = time.perf_counter()
    run(config, phi)
    assert time.perf_counter() - t0 < 0.5


# -- countermodels inside a block ---------------------------------------------
#
# A canonical plan checks one block of S valuations at a time; each first
# countermodel below lies at valuation s > 0 of a block j > 0 (block j being
# one assignment of coalgebras to the atoms), after every model at the
# smaller carriers.


@pytest.mark.parametrize(
    "preset, algebra, text, n, block, sigma",
    [
        ("pdl-labelled", "L2", "<a;b>p -> <b;a>p", 2, 87, 6),
        ("pdl-labelled", "L2", "<b>p -> <a>q \\/ p", 2, 3, 54),
        ("game", "L2", "<a&b>q -> <b>p", 1, 11, 2),
        ("instantial", None, "<a:inst2>(p, q) -> <b:inst1>p", 1, 8, 3),
    ],
)
def test_countermodel_inside_a_block_matches_reference(preset, algebra, text, n, block, sigma):
    if algebra is None:
        config = make_preset(preset, max_k=2)
    else:
        config = make_preset(preset, algebra_by_name(algebra))
    phi = parse(text, config.signature)
    _assert_same(config, [], phi, 2)
    atoms, props = len(sx.atoms_of(phi)), len(sx.props_of(phi))
    before = sum(_models_at(config, m, atoms, props) for m in range(1, n))
    S = config.truth.m ** (n * props)
    assert bounded_entailment([], phi, config, max_n=2).cases == before + block * S + sigma + 1


# -- every step of a canonical plan, on k-ary liftings and tests ------------


STEP_CONFIGS = {**CONFIGS, "instantial": make_preset("instantial", _B2X, max_k=2)}


@st.composite
def slot_1_formulas(draw):
    """A formula over atoms a and b (b is slot 1) holding a test whose
    argument reads slot 1, beside slot 1 in a binary operation, and on the
    instantial preset a modality of the binary lifting inst2; with the
    carrier size to sweep it at."""
    name = draw(st.sampled_from(sorted(STEP_CONFIGS)))
    config = STEP_CONFIGS[name]
    rng = random.Random(draw(st.integers(0, 2**32)))
    a, b = sx.Atomic("a"), sx.Atomic("b")

    def formula(depth):
        return random_formula(rng, config, depth, atoms=("a", "b"), props=("p", "q"))

    def modal(action, depth, lid=None):
        lid = lid or rng.choice(sorted(config.liftings))
        args = tuple(formula(depth) for _ in range(config.liftings[lid].arity))
        return sx.Modal(lid, action, args)

    test = sx.Test(rng.choice(sorted(config.tests)), modal(b, 1))
    op = rng.choice(sorted(spec.id for spec in config.ops.values() if spec.arity == 2))
    pair = rng.choice([(test, b), (b, test), (a, test)])
    parts = [modal(sx.Op(op, pair), 1), formula(2)]
    if "inst2" in config.liftings:
        parts.append(modal(rng.choice([a, b, sx.Op(op, (a, b))]), 1, "inst2"))
    rng.shuffle(parts)
    phi = parts[0]
    for part in parts[1:]:
        phi = sx.Conn(rng.choice(["/\\", "\\/", "->"]), (phi, part))
    props = len(sx.props_of(phi))
    n = 2 if _models_at(config, 2, 2, props) <= MODELS_AT_TWO else 1
    return config, phi, n


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slot_1_formulas())
def test_every_step_matches_reference_on_slot_1_tests_and_inst2(case):
    config, phi, n = case
    props = sorted(sx.props_of(phi))
    plan = semantics.Plan(config, n, ["b", "a"], props, canonical=True)
    plan.compile(phi)
    S = config.truth.m ** (n * len(props))
    nodes = [(node, pos) for node, (pos, _) in plan._pos.items() if not isinstance(node, tuple)]
    for blocks in plan.sweep(DEFAULT_SWEEP_BUDGET, models=True):
        for b in range(len(blocks)):
            for s in range(S):
                gammas, sigmas = plan.case(b * S + s)
                model = Model(n, config, {"b": gammas[0], "a": gammas[1]}, dict(zip(props, sigmas)))
                reference = ReferenceSession(model)
                for node, pos in nodes:
                    got = plan.block(pos, b)[s]
                    if isinstance(node, (sx.Op, sx.Test)):
                        assert plan.decode(got) == reference.interpret(node), node
                    else:
                        assert plan.preds[got] == reference.eval(node), node
    _assert_same(config, [], phi, n)
