"""The plan's operation outputs against ``apply_op``.

A plan holds a coalgebra as the tuple of its states' vids and reads every
operation output, as ``check_safety`` does, through
``semantics.op_outputs``: a pointwise operation from a table by vid pair,
a unary local one by (state, vid), a composition from one left-vid row
per right operand, of which a plan that is not canonical, or a canonical
one over a test's cids while the right operand reads slot 1, keeps up to
``KEPT_MAPS`` and a canonical one else only the last, and ``star`` through
``apply_op``.  On a canonical plan, whose sweep interns every coalgebra
in canonical order, a binary operation over one listed operand and one
fixed cid, either of which it reads only at the evaluated state, reads
its outputs off a table per fixed cid instead: from rows of the fixed
cid's outputs where the listed operand is local, and from one column per
left vid, over every right cid, where a composition's right operand is
listed.  These check every variant on every path: on canonical plans over
their whole case space (a composition up to three states, with short
block lists) or at drawn cids of it (two states, where FX**2 interns
cheaply), and on plans that run drawn cases or every case at one state,
before and after ``forget`` and at a tiny cap on the kept rows; and how
many composition maps are built, output calls made and rows kept.
"""

import random
from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl import semantics
from mvdl import syntax as sx
from mvdl.actions import (
    COMPOSITION_VARIANTS,
    OP_ARITIES,
    OP_VARIANTS,
    POINTWISE_VARIANTS,
    UNARY_STEP_VARIANTS,
    OperationSpec,
    apply_op,
    apply_test,
    pointwise_step,
)
from mvdl.algebra import algebra_by_name
from mvdl.functors import Kind, functor_ops, predicate_drawer, predicate_space
from mvdl.harness import DEFAULT_SWEEP_BUDGET, bounded_entailment
from mvdl.presets import make_preset
from mvdl.semantics import Plan, apply_lifting
from mvdl.syntax import parse

from conftest import ANY_SPACE, run_at
from reference_eval import reference_pointwise

_L2, _B2 = algebra_by_name("L2"), algebra_by_name("B2")
_GAME = make_preset("game", _L2)
BASE = {
    Kind.POWERSET: make_preset("pdl-crisp", _B2),
    Kind.APOWERSET: make_preset("pdl-labelled", _L2),
    Kind.A_NEIGHBOURHOOD: replace(_GAME, kind=Kind.A_NEIGHBOURHOOD),
    Kind.MONOTONE_NEIGHBOURHOOD: _GAME,
    Kind.DOUBLE_POWERSET: make_preset("instantial", _B2),
}
CASES = [
    (variant, kind)
    for variant in POINTWISE_VARIANTS + COMPOSITION_VARIANTS + UNARY_STEP_VARIANTS + ("star",)
    for kind in OP_VARIANTS[variant]
]


def _config(variant, kind):
    return replace(BASE[kind], ops={"o": OperationSpec("o", OP_ARITIES[variant], variant)})


def _nodes(config):
    """The operation's shapes, by key: each node with what its step holds
    on a canonical plan (a cid per block, a vector of cids per block, or
    one vector in all), and the lifting and tests it reads."""
    lift = next(iter(config.liftings.values()))
    w1 = sx.Var(1)
    t_w1, t_slot1 = sx.Test("t", w1), sx.Test("t", sx.Modal(lift.id, 1, (w1,) * lift.arity))
    if config.ops["o"].arity == 1:
        nodes = {
            "slot 1": (sx.Op("o", (1,)), "block"),
            "slot 2": (sx.Op("o", (2,)), "one"),
            "nested": (sx.Op("o", (sx.Op("o", (1,)),)), "block"),
            "test": (sx.Op("o", (t_w1,)), "one"),
            "test reading slot 1": (sx.Op("o", (t_slot1,)), "vector"),
        }
    else:
        nodes = {
            "left": (sx.Op("o", (1, 2)), "block"),
            "right": (sx.Op("o", (2, 1)), "block"),
            "nested": (sx.Op("o", (2, sx.Op("o", (1, 2)))), "block"),
            "test": (sx.Op("o", (t_w1, 2)), "one"),
            "test reading slot 1": (sx.Op("o", (2, t_slot1)), "vector"),
            "test beside slot 1": (sx.Op("o", (1, t_w1)), "vector"),
        }
    return nodes, lift, w1


def _reference(config, n):
    """The output of a node of ``_nodes`` at a case ``(g1, g2, sigma)``, by
    ``apply_op``, ``apply_test`` and ``apply_lifting``."""
    spec, fops, truth = config.ops["o"], config.fops(n), config.truth
    _, lift, w1 = _nodes(config)

    @lru_cache(None)
    def op(*operands):
        return apply_op(spec, operands, fops)

    @lru_cache(None)
    def test(sigma, g1):  # the test of w1, or of the lifting over slot 1 with g1 given
        pred = sigma if g1 is None else tuple(
            apply_lifting(lift, [sigma] * lift.arity, value, config, n) for value in g1
        )
        return apply_test(config.tests["t"], pred, fops, truth)

    def want(node, g1, g2, sigma):
        if isinstance(node, sx.Op):
            return op(*(want(a, g1, g2, sigma) for a in node.args))
        if isinstance(node, sx.Test):
            return test(sigma, None if node.arg == w1 else g1)
        return g1 if node == 1 else g2

    return want


def _canonical(config, n):
    """A canonical two-slot plan with one variable, holding the shapes of
    ``_nodes``: the plan, the shapes, their positions and ``_reference``."""
    plan = Plan(config, n, 2, 1, canonical=True)
    nodes = _nodes(config)[0]
    positions = {key: plan._action(node)[0] for key, (node, _) in nodes.items()}
    return plan, nodes, positions, _reference(config, n)


def _check_blocks(plan, nodes, positions, want, blocks):
    """Check every shape at every case of the block list ``blocks`` the
    plan ran last against ``apply_op``; a vector is read at every
    sigma-position."""
    S = plan.size
    for key, (node, holds) in nodes.items():
        pos = positions[key]
        assert isinstance(plan.vals[pos], int) == (holds == "one"), key
        for b in range(len(blocks)):
            got = list(map(plan.decode, plan.block(pos, b)))
            at = range(b * S, b * S + (1 if holds == "block" else S))
            if holds == "block":  # the same cid at every sigma-position
                assert got == got[:1] * S, key
            cases = [(*gs, s) for gs, (s,) in map(plan.case, at)]
            assert got[:len(at)] == [want(node, *case) for case in cases], key


def _check_sweep(config, n, stride=1):
    """Sweep a two-slot plan with one variable over its canonical case
    space and check the operation against ``apply_op`` at every case whose
    outer cid is divisible by ``stride``: for a binary operation with slot
    1 on the left (one right operand per outer assignment), on the right
    (a new right operand per slot-1 cid), behind another operation on the
    right, and beside tests: a test of w1 on the left of slot 2 (one vector
    of cids in all), a test reading slot 1 on the right of slot 2 and a
    test of w1 beside slot 1 (a vector of cids per block); for a unary one
    over each slot, over itself and over the two tests."""
    plan, nodes, positions, want = _canonical(config, n)
    for blocks in plan.sweep(DEFAULT_SWEEP_BUDGET):
        if plan.cids[1] % stride == 0:
            _check_blocks(plan, nodes, positions, want, blocks)


def _check_drawn(config, n, rng, count):
    """Set up a plan's canonical case space as ``_check_sweep`` does,
    whatever its size, and check the same shapes at ``count`` cids drawn
    from ``rng``: each on slot 2, with all of them as slot 1's block list."""
    plan, nodes, positions, want = _canonical(config, n)
    next(plan.sweep(ANY_SPACE))
    cids = [rng.randrange(len(plan.coalgs)) for _ in range(count)]
    for outer in cids:
        run_at(plan, [outer], cids)
        _check_blocks(plan, nodes, positions, want, cids)


def _check_cases(config, n, cases):
    """Run the shapes of ``_check_sweep`` on a plan that is not canonical,
    at the cases ``(g1, g2, sigma)`` of ``cases``, and check each case's
    output against ``apply_op``; then forget every id and run them again."""
    plan = Plan(config, n, 2, 1)
    nodes, want = _nodes(config)[0], _reference(config, n)
    positions = {key: plan._action(node)[0] for key, (node, _) in nodes.items()}
    for _ in range(2):
        plan.run_cases(len(cases), list(zip(*cases))[:2], [[sigma for *_, sigma in cases]])
        for key, (node, _) in nodes.items():
            got = list(map(plan.decode, plan.vals[positions[key]]))
            assert got == [want(node, *case) for case in cases], key
        plan.forget(0)
        assert not plan.coalgs and not plan.values


@pytest.mark.parametrize("cap", [semantics.KEPT_MAPS, 2])
@pytest.mark.parametrize("variant,kind", CASES, ids=lambda v: getattr(v, "value", v))
def test_plan_outputs_equal_apply_op_exhaustively_at_one_state(variant, kind, cap, monkeypatch):
    # every case at one state on a plan that is not canonical, in one batch,
    # where at a cap of 2 a composition evicts rows its right operands reuse
    monkeypatch.setattr(semantics, "KEPT_MAPS", cap)
    config = _config(variant, kind)
    coalgs = [(value,) for value in config.fops(1).enumerate()]
    sigmas = predicate_space(config.truth.m, 1)
    _check_cases(config, 1, list(product(coalgs, coalgs, sigmas)))


@pytest.mark.parametrize("sweep_ids", [5, semantics.SWEEP_IDS])
@pytest.mark.parametrize("variant,kind", CASES, ids=lambda v: getattr(v, "value", v))
def test_canonical_plan_outputs_equal_apply_op_at_one_state(variant, kind, sweep_ids, monkeypatch):
    # at 5 the block lists start mid-range; by default one holds every cid
    monkeypatch.setattr(semantics, "SWEEP_IDS", sweep_ids)
    _check_sweep(_config(variant, kind), 1)


@pytest.mark.parametrize(
    "variant,kind",
    [case for case in CASES if case[1] in (Kind.POWERSET, Kind.APOWERSET, Kind.DOUBLE_POWERSET)],
    ids=lambda v: getattr(v, "value", v),
)
def test_canonical_plan_outputs_equal_apply_op_at_two_states(variant, kind, monkeypatch):
    # crisp/B2, labelled/L2 and instantial/B2: 16, 81 and 256 coalgebras
    monkeypatch.setattr(semantics, "SWEEP_IDS", 40)
    config = _config(variant, kind)
    _check_sweep(config, 2, stride=1 + len(list(config.fops(2).enumerate())) ** 2 // 40)


def test_canonical_plan_outputs_equal_apply_op_at_three_states():
    # crisp/B2 kleisli, the one composition on powersets: 512 coalgebras,
    # so an output cid is a sum over three digits on either side of slot 1;
    # the pair path at three states is left to the drawn cases below
    config = _config("kleisli", Kind.POWERSET)
    _check_sweep(config, 3, stride=1 + len(list(config.fops(3).enumerate())) ** 3 // 40)


# at two states FX**2 holds 16 coalgebras on crisp/B2, 81 on labelled/L2,
# 256 on instantial/B2 and 30,625 on game/L2, which interns cheaply but
# makes a composition over slot 1 build 30,625 outputs per column set-up;
# aneighbourhood/L2's 3.9e8 are left to the drawn cases of plans that are
# not canonical
DRAWN = [
    case for case in CASES
    if case[1] != Kind.A_NEIGHBOURHOOD and case != ("kleisli", Kind.MONOTONE_NEIGHBOURHOOD)
]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(DRAWN), st.integers(0, 2**32), st.integers(1, 7))
def test_plan_outputs_equal_apply_op_at_two_states(case, seed, count):
    _check_drawn(_config(*case), 2, random.Random(seed), count)


def test_monotone_kleisli_outputs_equal_apply_op_at_two_states():
    # one fixed case: setting up the columns of the composition over slot 1
    # takes seconds, once for the plan, as "right" and "nested" share them
    config = _config("kleisli", Kind.MONOTONE_NEIGHBOURHOOD)
    _check_drawn(config, 2, random.Random(1), 5)


@pytest.mark.parametrize("cap", [semantics.KEPT_MAPS, 2])
@settings(max_examples=150, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture
])
@given(st.sampled_from(CASES), st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 7))
def test_sampled_plan_outputs_equal_apply_op(cap, monkeypatch, case, seed, n, count):
    # the cap on a composition's kept rows binds on plans that are not
    # canonical only; at 2 it evicts rows within a batch
    monkeypatch.setattr(semantics, "KEPT_MAPS", cap)
    config = _config(*case)
    rng = random.Random(seed)
    value, sigma = config.fops(n).drawer(rng), predicate_drawer(rng, config.truth.m, n)
    coalgs = [tuple(value() for _ in range(n)) for _ in range(count)]
    # slot 2 takes the next drawn coalgebra, so the operands differ
    _check_cases(config, n, list(zip(coalgs, coalgs[1:] + coalgs[:1], [sigma() for _ in range(count)])))


@pytest.mark.parametrize("variant", POINTWISE_VARIANTS)
def test_pointwise_step_matches_reference(variant):
    kind = OP_VARIANTS[variant][0]
    alg = BASE[kind].struct
    fops = functor_ops(kind, 1, alg)
    step = pointwise_step(alg, variant)
    for u, v in product(list(fops.enumerate()), repeat=2):
        assert (step(u, v),) == reference_pointwise(variant, alg, (u,), (v,))


@pytest.mark.parametrize("text,bound", [
    ("(<a;b>p -> <a><b>p) /\\ (<a><b>p -> <a;b>p)", 200),
    ("<?t(<a>p);b>q -> <?t(<a>p)><b>q", 81 + 3),
])
def test_composition_axiom_builds_few_maps(text, bound, monkeypatch):
    # a;b has its right operand b on slot 1: each of b's 81 coalgebras at
    # two states and 3 at one has its map built once (84 in all); beside a
    # test reading slot 2 the right operands recur once per test vector,
    # and their rows are kept (738 maps with one row kept)
    config = make_preset("pdl-labelled", _L2)
    calls = []
    build = semantics.composition_map

    def counted(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(semantics, "composition_map", counted)
    verdict = bounded_entailment([], parse(text, config.signature), config, max_n=2)
    assert verdict.status == "holds-up-to-bound"
    assert len(calls) <= bound


@pytest.mark.parametrize("preset,lifting,bound", [
    ("pdl-labelled", "dia", 81 + 3),
    ("instantial", "inst1", 256 + 4),
])
def test_composition_over_slot_1_makes_one_output_per_right_cid(preset, lifting, bound, monkeypatch):
    # a;b has its right operand b on slot 1 and reads its outputs off one
    # column per left vid, so it makes one output call per right cid at two
    # states and at one, not one per pair of cids (6570 and 65552 calls);
    # a;(a;b) lists its right operand too and shares a;b's columns, which
    # a set per step would double
    config = make_preset(preset, _L2 if preset == "pdl-labelled" else _B2)
    variant = config.ops[";"].variant
    calls = []
    make = semantics.op_outputs

    def counted(spec, *args):
        outputs = make(spec, *args)

        def output(keys):
            calls.append(None)
            return outputs(keys)

        return output if spec.variant == variant else outputs

    monkeypatch.setattr(semantics, "op_outputs", counted)
    a, b, ab, aab = (f"<{x}:{lifting}>" for x in ("a", "b", "a;b", "a;(a;b)"))
    text = f"({ab}p -> {a}{b}p) /\\ ({a}{b}p -> {ab}p) /\\ ({aab}p -> {a}{ab}p)"
    phi = parse(text, config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2)
    assert verdict.status == "holds-up-to-bound"
    assert len(calls) <= bound


def _held_rows(monkeypatch) -> list:
    """How many rows a composition's table held after each row was added,
    in every plan made from now on."""
    held = []

    class Watched(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            if isinstance(value, semantics._Table):  # a right operand's row
                held.append(len(self))

    keep = Plan._keep
    monkeypatch.setattr(Plan, "_keep", lambda self, table: keep(
        self, Watched() if type(table) is dict and not table else table
    ))
    return held


@pytest.mark.parametrize("preset,lifting", [("pdl-labelled", "dia"), ("instantial", "inst1")])
def test_canonical_compositions_hold_one_row(preset, lifting, monkeypatch):
    # a canonical sweep reads a listed right operand off its columns, each
    # right operand's row once, so it keeps only the last row
    held = _held_rows(monkeypatch)
    config = make_preset(preset, _L2 if preset == "pdl-labelled" else _B2)
    a, b, ab = (f"<{x}:{lifting}>" for x in ("a", "b", "a;b"))
    phi = parse(f"({ab}p -> {a}{b}p) /\\ ({a}{b}p -> {ab}p)", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2)
    assert verdict.status == "holds-up-to-bound"
    assert held and max(held) == 1


def test_kept_maps_stay_within_the_cap(monkeypatch):
    held = _held_rows(monkeypatch)
    config = make_preset("game", _L2)
    phi = parse("<a;b>p -> <a;b>p", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2, mode="random", trials=2000, seed=5)
    assert verdict.status == "holds-up-to-bound"
    # the sampled right operands outnumber the cap, which is reached
    assert max(held) == semantics.KEPT_MAPS
