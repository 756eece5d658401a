"""The plan's operation tables against ``apply_op``.

A binary pointwise operation goes through ``pointwise_step`` memoised on
FValue pairs, and a composition through the map of its right operand, of
which the plan keeps every one while the right operand reads slot 1 and
the left does not.  These check both paths, before and after ``forget``,
at a tiny cap on the kept maps, and how many maps are built and kept.
"""

import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl import semantics
from mvdl import syntax as sx
from mvdl.actions import (
    COMPOSITION_VARIANTS,
    OP_VARIANTS,
    POINTWISE_VARIANTS,
    OperationSpec,
    apply_op,
    pointwise_step,
)
from mvdl.algebra import algebra_by_name
from mvdl.functors import Kind, functor_ops
from mvdl.harness import bounded_entailment
from mvdl.presets import make_preset
from mvdl.semantics import Plan
from mvdl.syntax import parse

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
    for variant in POINTWISE_VARIANTS + COMPOSITION_VARIANTS
    for kind in OP_VARIANTS[variant]
]


def _config(variant, kind):
    return replace(BASE[kind], ops={"o": OperationSpec("o", 2, variant)})


def _check_sweep(config, n, coalgs):
    """Sweep a two-slot plan over ``coalgs`` and check, at every pair, the
    operation with slot 1 on the left (one right operand per outer
    assignment), on the right (a new right operand per slot-1 cid) and
    behind another operation on the right; then forget and check again."""
    coalgs = list(dict.fromkeys(coalgs))  # cid i is coalgs[i]
    spec, fops = config.ops["o"], config.fops(n)
    plan = Plan(config, n, 2, 0)
    nodes = {
        "left": sx.Op("o", (1, 2)),
        "right": sx.Op("o", (2, 1)),
        "nested": sx.Op("o", (2, sx.Op("o", (1, 2)))),
    }
    positions = {key: plan._action(node)[0] for key, node in nodes.items()}

    def op(g1, g2):
        return apply_op(spec, (g1, g2), fops)

    want = {
        "left": lambda g1, g2: op(g1, g2),
        "right": lambda g1, g2: op(g2, g1),
        "nested": lambda g1, g2: op(g2, op(g1, g2)),
    }
    for _ in range(2):
        for g in coalgs:
            plan.intern(g)
        plan.load([], 1)
        for blocks in plan.sweep(len(coalgs)):
            outer = coalgs[plan.cids[1]]
            for key, pos in positions.items():
                got = [plan.coalgs[c] for c in plan.vals[pos]]
                assert got == [want[key](coalgs[c], outer) for c in blocks], key
        plan.forget(0)
        assert not plan.coalgs


@pytest.mark.parametrize("cap", [semantics.KEPT_MAPS, 2])
@pytest.mark.parametrize("variant,kind", CASES, ids=lambda v: getattr(v, "value", v))
def test_plan_outputs_equal_apply_op_exhaustively_at_one_state(variant, kind, cap, monkeypatch):
    monkeypatch.setattr(semantics, "KEPT_MAPS", cap)
    config = _config(variant, kind)
    fops = config.fops(1)
    _check_sweep(config, 1, [(value,) for value in fops.enumerate()])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(CASES), st.integers(0, 2**32), st.integers(1, 7))
def test_plan_outputs_equal_apply_op_at_two_states(case, seed, count):
    config = _config(*case)
    fops, rng = config.fops(2), random.Random(seed)
    _check_sweep(config, 2, [(fops.random_value(rng), fops.random_value(rng)) for _ in range(count)])


@pytest.mark.parametrize("variant", POINTWISE_VARIANTS)
def test_pointwise_step_matches_reference(variant):
    kind = OP_VARIANTS[variant][0]
    alg = BASE[kind].struct
    fops = functor_ops(kind, 1, alg)
    step = pointwise_step(alg, variant)
    for u, v in product(list(fops.enumerate()), repeat=2):
        assert (step(u, v),) == reference_pointwise(variant, alg, (u,), (v,))


def test_composition_axiom_builds_few_maps(monkeypatch):
    # a;b has its right operand b on slot 1: each of b's 81 coalgebras at
    # two states and 3 at one has its map built once (84 in all)
    config = make_preset("pdl-labelled", _L2)
    calls = []
    build = semantics.composition_map

    def counted(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(semantics, "composition_map", counted)
    phi = parse("(<a;b>p -> <a><b>p) /\\ (<a><b>p -> <a;b>p)", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2)
    assert verdict.status == "holds-up-to-bound"
    assert len(calls) <= 200


def test_kept_maps_stay_within_the_cap(monkeypatch):
    held = []  # how many maps a table held after each map was added

    class Watched(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            if callable(value):  # a composition map
                held.append(len(self))

    keep = Plan._keep
    monkeypatch.setattr(Plan, "_keep", lambda self, table: keep(
        self, Watched() if type(table) is dict and not table else table
    ))
    config = make_preset("game", _L2)
    phi = parse("<a;b>p -> <a;b>p", config.signature)
    verdict = bounded_entailment([], phi, config, max_n=2, mode="random", trials=2000, seed=5)
    assert verdict.status == "holds-up-to-bound"
    # the sampled right operands outnumber the cap, which is reached
    assert max(held) == semantics.KEPT_MAPS
