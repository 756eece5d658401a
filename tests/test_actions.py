"""Coalgebra operations, tests and iteration."""

import random
from itertools import product

import pytest

from mvdl.actions import (
    LOCAL_OPERANDS,
    OP_ARITIES,
    OP_VARIANTS,
    OperationSpec,
    apply_op,
    apply_test,
    double_seq_map,
    kleisli_star,
)
from mvdl.actions import TestSpec as TSpec
from mvdl.algebra import Algebra, build_builtin
from mvdl.errors import BudgetExceeded, IncompatibleVariant
from mvdl import functors
from mvdl.functors import Kind, functor_ops, int_drawer, predicate_drawer, predicate_space
from mvdl.presets import PRESET_NAMES, make_preset

from reference_eval import (
    reference_double_seq_map,
    reference_monotone_draw,
    reference_random_value,
)

KLEISLI = OperationSpec(";", 2, "kleisli")
DSEQ = OperationSpec(";", 2, "double-seq")
DSTAR = OperationSpec("&", 2, "double-star")
STAR = OperationSpec("*", 1, "star")


def compose(fops, g1, g2):
    variant = "double-seq" if fops.kind is Kind.DOUBLE_POWERSET else "kleisli"
    return apply_op(OperationSpec(";", 2, variant), (g1, g2), fops)


class TestBasicOps:
    def test_powerset_kleisli_is_relation_composition(self, B2):
        fops = functor_ops(Kind.POWERSET, 3, B2)
        ga = (0b010, 0, 0)
        gb = (0, 0b100, 0)
        assert apply_op(KLEISLI, (ga, gb), fops) == (0b100, 0, 0)

    def test_apowerset_joinpw(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        out = apply_op(
            OperationSpec("+", 2, "join-pw"),
            (((1, 0), (0, 0)), ((0, 2), (0, 0))),
            fops,
        )
        assert out[0] == (1, 2)

    def test_counter_domain_powerset(self, B2):
        fops = functor_ops(Kind.POWERSET, 2, B2)
        out = apply_op(OperationSpec("~", 1, "counter-domain"), ((0, 0b01),), fops)
        assert out == (0b01, 0)

    def test_counter_domain_apowerset(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        out = apply_op(
            OperationSpec("~", 1, "counter-domain"), (((0, 0), (1, 0)),), fops
        )
        assert out == ((2, 0), (0, 0))

    def test_dual_is_involutive_for_involutive_negation(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, L2)
        dual = OperationSpec("^d", 1, "dual")
        for t in fops.enumerate():
            g = (t,)
            assert apply_op(dual, (apply_op(dual, (g,), fops),), fops) == g

    def test_incompatible_variant(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        with pytest.raises(IncompatibleVariant):
            apply_op(OperationSpec("+", 2, "union"), ((0, 0), (0, 0)), fops)

    def test_nbh_union(self, B2):
        fops = functor_ops(Kind.DOUBLE_POWERSET, 2, B2)
        g1 = (frozenset({0b01}), frozenset())
        g2 = (frozenset({0b10, 0b00}), frozenset())
        out = apply_op(OperationSpec("+", 2, "nbh-union"), (g1, g2), fops)
        assert out[0] == frozenset({0b11, 0b01})
        assert out[1] == frozenset()


class TestKleisliLaws:
    @pytest.mark.parametrize("kind", [Kind.POWERSET, Kind.APOWERSET])
    def test_unit_laws_exhaustive(self, kind, L2):
        fops = functor_ops(kind, 2, L2)
        eta = tuple(fops.unit(x) for x in range(2))
        for g in product(fops.enumerate(), repeat=2):
            assert compose(fops, eta, g) == g
            assert compose(fops, g, eta) == g

    def test_unit_laws_neighbourhood(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, L2)
        eta = (fops.unit(0),)
        for t in fops.enumerate():
            g = (t,)
            assert compose(fops, eta, g) == g
            assert compose(fops, g, eta) == g

    def test_associativity_powerset_exhaustive(self, B2):
        fops = functor_ops(Kind.POWERSET, 2, B2)
        coalgs = list(product(fops.enumerate(), repeat=2))
        for g1 in coalgs:
            for g2 in coalgs:
                left12 = compose(fops, g1, g2)
                for g3 in coalgs:
                    assert compose(fops, left12, g3) == compose(
                        fops, g1, compose(fops, g2, g3)
                    )

    def test_associativity_apowerset_exhaustive(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        coalgs = list(product(fops.enumerate(), repeat=2))
        # every composite is again one of the 81 coalgebras, so the 81**2
        # composites, as indices, decide every triple by lookup
        index = {g: i for i, g in enumerate(coalgs)}
        table = [[index[compose(fops, g1, g2)] for g2 in coalgs] for g1 in coalgs]
        for row1 in table:
            for j, row2 in enumerate(table):
                left12 = table[row1[j]]
                for k, c23 in enumerate(row2):
                    assert left12[k] == row1[c23]

    def test_associativity_apowerset_sampled(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        value = fops.drawer(random.Random(29))
        for _ in range(1500):
            g1, g2, g3 = (tuple(value() for _ in range(2)) for _ in range(3))
            assert compose(fops, compose(fops, g1, g2), g3) == compose(
                fops, g1, compose(fops, g2, g3)
            )

    def test_associativity_monotone_sampled(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 2, L2)
        value = fops.drawer(random.Random(31))
        for _ in range(150):
            g1, g2, g3 = (tuple(value() for _ in range(2)) for _ in range(3))
            assert compose(fops, compose(fops, g1, g2), g3) == compose(
                fops, g1, compose(fops, g2, g3)
            )


def _bits(mask, n):
    return [y for y in range(n) if mask >> y & 1]


def _union_masks(family):
    acc = 0
    for m in family:
        acc |= m
    return acc


def _seq_comprehension_oracle(t, g2, n):
    """Literal transcription of the sequential-composition comprehension:
    unions of families F drawn from the member neighbourhoods of some Z."""
    out = set()
    subsets = list(range(1 << n))
    for zmask in t:
        states = _bits(zmask, n)
        fam = set()
        for z in states:
            fam |= g2[z]
        for pick in range(1 << len(subsets)):
            F = [subsets[i] for i in range(len(subsets)) if pick >> i & 1]
            if not all(u in fam for u in F):
                continue
            if not all(any(u in g2[z] for u in F) for z in states):
                continue
            out.add(_union_masks(F))
    return frozenset(out)


def _star_comprehension_oracle(t, g2, n):
    """The collecting composition: members reachable through some Y in t."""
    return frozenset(
        mask
        for ymask in t
        for y in _bits(ymask, n)
        for mask in g2[y]
    )


def _star_categorical_oracle(t, g2, n):
    """mu_F . mu_FF on FF(gamma2)(t): two plain unions."""
    lifted = [frozenset(g2[z] for z in _bits(zmask, n)) for zmask in t]
    middle = set()
    for member in lifted:
        middle |= member
    out = set()
    for neighbourhood in middle:
        out |= neighbourhood
    return frozenset(out)


class TestDoubleMonad:
    """The explicit set comprehensions against independent oracles.

    The composed value at a state depends only on (gamma1(x), gamma2), so
    sweeping all (value, coalgebra) pairs is exhaustive at n = 2.
    """

    def test_double_seq_matches_comprehension(self, B2):
        n = 2
        fops = functor_ops(Kind.DOUBLE_POWERSET, n, B2)
        values = list(fops.enumerate())
        for g2 in product(values, repeat=n):
            for t in values:
                got = apply_op(DSEQ, ((t, t), g2), fops)[0]
                assert got == _seq_comprehension_oracle(t, g2, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_seq_map_matches_subfamily_walk(self, B2, n):
        # every value and right coalgebra at n <= 2, seeded ones at n = 3;
        # one map per right coalgebra serves every value, as in a sweep
        fops = functor_ops(Kind.DOUBLE_POWERSET, n, B2)
        if n < 3:
            values = list(fops.enumerate())
            pairs = [(values, g2) for g2 in product(values, repeat=n)]
        else:
            value = fops.drawer(random.Random(11))
            pairs = [
                ([value() for _ in range(25)], tuple(value() for _ in range(n)))
                for _ in range(25)
            ]
        for ts, g2 in pairs:
            dmap, want = double_seq_map(fops, g2), reference_double_seq_map(fops, g2)
            for t in ts:
                assert dmap(t) == want(t)

    def test_double_star_matches_comprehension_and_categorical(self, B2):
        n = 2
        fops = functor_ops(Kind.DOUBLE_POWERSET, n, B2)
        values = list(fops.enumerate())
        for g2 in product(values, repeat=n):
            for t in values:
                got = apply_op(DSTAR, ((t, t), g2), fops)[0]
                assert got == _star_comprehension_oracle(t, g2, n)
                assert got == _star_categorical_oracle(t, g2, n)


class TestStar:
    def test_two_state_chain_closure(self, B2):
        fops = functor_ops(Kind.POWERSET, 2, B2)
        assert kleisli_star(fops, (0b10, 0)) == (0b11, 0b10)

    def test_apowerset_self_loop_joins_to_top(self, L2):
        fops = functor_ops(Kind.APOWERSET, 1, L2)
        assert kleisli_star(fops, ((1,),)) == ((2,),)

    def test_matches_warshall_oracle(self, B2):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 5)
            fops = functor_ops(Kind.POWERSET, n, B2)
            gamma = tuple(rng.randrange(1 << n) for _ in range(n))
            assert kleisli_star(fops, gamma) == warshall_closure(gamma, n)

    @pytest.mark.parametrize(
        "kind,alg_fixture,n",
        [
            (Kind.POWERSET, "B2", 2),
            (Kind.APOWERSET, "L2", 2),
            (Kind.MONOTONE_NEIGHBOURHOOD, "B2", 2),
        ],
    )
    def test_star_unfolds_as_fixed_point(self, kind, alg_fixture, n, request):
        # gamma* = eta join (gamma ; gamma*); composition is join-continuous
        # in its second argument for these kinds (not for the double monad,
        # where families may mix members across iterates)
        alg = request.getfixturevalue(alg_fixture)
        fops = functor_ops(kind, n, alg)
        values = list(fops.enumerate())
        eta = tuple(fops.unit(x) for x in range(n))
        for gamma in product(values, repeat=n):
            star = kleisli_star(fops, gamma)
            again = compose(fops, gamma, star)
            assert star == tuple(
                fops.join2(eta[x], again[x]) for x in range(n)
            )

    def test_double_powerset_star_is_union_of_iterates(self, B2):
        n = 2
        fops = functor_ops(Kind.DOUBLE_POWERSET, n, B2)
        values = list(fops.enumerate())
        eta = tuple(fops.unit(x) for x in range(n))
        for gamma in product(values, repeat=n):
            star = kleisli_star(fops, gamma)
            # oracle: accumulate a long iterate prefix directly
            current = eta
            seen = [current]
            acc = list(current)
            for _ in range(64):
                current = compose(fops, gamma, current)
                if current in seen:
                    break
                seen.append(current)
                acc = [acc[x] | current[x] for x in range(n)]
            else:
                pytest.fail("iterate sequence did not cycle within 64 steps")
            assert star == tuple(acc)

    def test_iterate_cap(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        with pytest.raises(BudgetExceeded):
            kleisli_star(fops, ((1, 1), (1, 1)), cap=0)


def warshall_closure(gamma, n):
    """Independent reflexive-transitive closure oracle."""
    reach = [[bool(gamma[i] >> j & 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        reach[i][i] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    return tuple(
        sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)
    )


class TestTests:
    def test_test_p_powerset(self, L2, crisp_l2):
        fops = functor_ops(Kind.POWERSET, 2, L2)
        spec = TSpec("t", "test-p", frozenset({2}))
        assert apply_test(spec, (2, 0), fops, L2) == (0b01, 0)

    def test_labelled_unit(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        spec = TSpec("t", "labelled-unit")
        assert apply_test(spec, (1, 0), fops, L2) == ((1, 0), (0, 0))

    def test_labelled_unit_embeds_two_valued(self, L2, B2):
        # threshold configurations test with Boolean sigma over labelled rows
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        spec = TSpec("t", "labelled-unit")
        assert apply_test(spec, (1, 0), fops, B2) == ((2, 0), (0, 0))

    def test_instantial_else_branch(self, B2):
        fops = functor_ops(Kind.DOUBLE_POWERSET, 2, B2)
        spec = TSpec("t", "instantial-p", frozenset({1}))
        assert apply_test(spec, (0, 1), fops, B2) == (
            frozenset(),
            frozenset({0b10}),
        )

    def test_angelic(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, L2)
        spec = TSpec("t", "angelic")
        out = apply_test(spec, (1,), fops, L2)
        preds = predicate_space(3, 1)
        assert out[0] == tuple(L2.tensor(p[0], 1) for p in preds)


class TestMonotonePreservation:
    def test_ops_preserve_monotonicity(self, B2, L2):
        for alg, n in ((B2, 2), (L2, 1)):
            fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, n, alg)
            values = list(fops.enumerate())
            coalgs = list(product(values, repeat=n))
            binaries = [
                OperationSpec("+", 2, "join-pw"),
                OperationSpec("&", 2, "meet-pw"),
                OperationSpec(";", 2, "kleisli"),
            ]
            for g1 in coalgs:
                for g2 in coalgs:
                    for op in binaries:
                        for v in apply_op(op, (g1, g2), fops):
                            assert fops.is_monotone(v)
                for op in (
                    OperationSpec("^d", 1, "dual"),
                    OperationSpec("*", 1, "star"),
                    OperationSpec("~", 1, "counter-domain"),
                ):
                    for v in apply_op(op, (g1,), fops):
                        assert fops.is_monotone(v)

    def test_angelic_test_preserves_monotonicity(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 2, L2)
        spec = TSpec("t", "angelic")
        for sigma in predicate_space(3, 2):
            for v in apply_test(spec, sigma, fops, L2):
                assert fops.is_monotone(v)


class TestMonotoneDraws:
    def test_draws_match_the_uncached_loop(self, B2, L2, L3):
        # the reference joins over every predicate below, the drawer over
        # the covers only; B2 x B2 is not a chain, so its up-sets are not
        # intervals of indices
        square = Algebra(
            4,
            meet=[[x & y for y in range(4)] for x in range(4)],
            join=[[x | y for y in range(4)] for x in range(4)],
            tensor=[[x & y for y in range(4)] for x in range(4)],
            impl=[[(~x | y) & 3 for y in range(4)] for x in range(4)],
        )
        for alg, n in ((B2, 1), (B2, 2), (L2, 1), (L2, 2), (L3, 2), (square, 1), (square, 2)):
            fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, n, alg)
            for seed in range(5):
                cached, uncached = random.Random(seed), random.Random(seed)
                draw = fops.drawer(cached)
                for _ in range(400):
                    assert draw() == reference_monotone_draw(fops, uncached)
                assert cached.getstate() == uncached.getstate()


class TestDrawers:
    @pytest.mark.parametrize(
        "kind, alg_fixture, sizes",
        [
            (Kind.POWERSET, "B2", (1, 2, 3)),
            (Kind.APOWERSET, "L2", (1, 2, 3)),
            (Kind.APOWERSET, "L3", (1, 2)),
            (Kind.A_NEIGHBOURHOOD, "B2", (1, 2)),
            (Kind.A_NEIGHBOURHOOD, "L2", (1, 2)),
            (Kind.MONOTONE_NEIGHBOURHOOD, "L2", (1, 2)),
            (Kind.MONOTONE_NEIGHBOURHOOD, "L3", (1, 2)),
            (Kind.DOUBLE_POWERSET, "B2", (1, 2, 3)),
        ],
    )
    def test_drawer_matches_the_rng_methods(self, kind, alg_fixture, sizes, request):
        # the inlined draws give the values randrange, choice and random gave,
        # and leave the generator in the same state, so a sweep that mixes
        # them with other draws keeps its order
        alg = request.getfixturevalue(alg_fixture)
        for n in sizes:
            fops = functor_ops(kind, n, alg)
            for seed in range(3):
                inlined, methods = random.Random(seed), random.Random(seed)
                draw, other = fops.drawer(inlined), fops.drawer(inlined)
                for _ in range(300):
                    assert draw() == reference_random_value(fops, methods)
                    assert other() == reference_random_value(fops, methods)
                assert inlined.getstate() == methods.getstate()

    def test_predicate_drawer_matches_randrange(self):
        for m, n in ((1, 2), (2, 1), (2, 3), (3, 2), (4, 4), (5, 3), (9, 1)):
            inlined, methods = random.Random(m * 10 + n), random.Random(m * 10 + n)
            draw = predicate_drawer(inlined, m, n)
            for _ in range(300):
                assert draw() == tuple(methods.randrange(m) for _ in range(n))
            assert inlined.getstate() == methods.getstate()

    def test_int_drawer_matches_randint(self):
        # bounded entailment draws each sampled model's size this way
        for lo, hi in ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (0, 7), (2, 9), (3, 17)):
            inlined, methods = random.Random(lo * 100 + hi), random.Random(lo * 100 + hi)
            draw = int_drawer(inlined, lo, hi)
            for _ in range(300):
                assert draw() == methods.randint(lo, hi)
            assert inlined.getstate() == methods.getstate()


# every kind a drawer draws, with carrier sizes whose spaces fit a table of
# 64 entries and ones that do not (rows of L2 at n = 4, families at n = 3)
DRAWN = [
    (Kind.POWERSET, "B2", (1, 3)),
    (Kind.APOWERSET, "L2", (1, 2, 4)),
    (Kind.A_NEIGHBOURHOOD, "B2", (1, 2)),
    (Kind.A_NEIGHBOURHOOD, "L2", (1, 2)),
    (Kind.MONOTONE_NEIGHBOURHOOD, "B2", (1, 2)),
    (Kind.MONOTONE_NEIGHBOURHOOD, "L2", (1, 2, 3)),
    (Kind.MONOTONE_NEIGHBOURHOOD, "L3", (1, 2)),
    (Kind.DOUBLE_POWERSET, "B2", (1, 2, 3)),
]


class TestDrawTables:
    @pytest.mark.parametrize("cap", [None, 64, 7])
    @pytest.mark.parametrize("kind, alg_fixture, sizes", DRAWN)
    def test_draws_match_the_reference_across_table_resets(
        self, kind, alg_fixture, sizes, cap, request, monkeypatch
    ):
        # at the default cap and with small tables, which start afresh many
        # times, the draws give the values and RNG state of the methods
        if cap is None:
            cap = functors.DRAW_TABLE_ENTRIES
        else:
            monkeypatch.setattr(functors, "DRAW_TABLE_ENTRIES", cap)
        alg = request.getfixturevalue(alg_fixture)
        for n in sizes:
            fops = functor_ops(kind, n, alg)
            for seed in range(2):
                tabled, methods = random.Random(seed), random.Random(seed)
                uncached = random.Random(seed)
                draw, resets, before, seen = fops.drawer(tabled), 0, 0, set()
                for _ in range(1500):
                    got = draw()
                    seen.add(got)
                    assert got == reference_random_value(fops, methods)
                    if kind is Kind.MONOTONE_NEIGHBOURHOOD:
                        assert got == reference_monotone_draw(fops, uncached)
                    held = draw.held() if kind is not Kind.POWERSET else 0
                    assert held <= cap
                    resets, before = resets + (held < before), held
                assert tabled.getstate() == methods.getstate()
                # a table keeps each value it draws, where a monotone trie has
                # room for a path of one node per predicate
                fits = kind is not Kind.MONOTONE_NEIGHBOURHOOD or cap > alg.m**n
                if kind is not Kind.POWERSET and fits and len(seen) > cap:
                    assert resets > 0

    def test_predicate_tables_match_randrange_across_sizes(self, monkeypatch):
        monkeypatch.setattr(functors, "DRAW_TABLE_ENTRIES", 16)
        for m, n in ((2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 3)):
            tabled, methods = random.Random(m * 10 + n), random.Random(m * 10 + n)
            draw = predicate_drawer(tabled, m, n)
            for _ in range(300):
                assert draw() == tuple(methods.randrange(m) for _ in range(n))
            # a space of at most 16 predicates is drawn whole and kept
            held = draw.held()
            assert held == m**n if m**n <= 16 else 0 < held <= 16
            assert tabled.getstate() == methods.getstate()

    @pytest.mark.parametrize("kind, alg_fixture, sizes", DRAWN[1:])
    def test_a_value_drawn_twice_is_the_same_object(self, kind, alg_fixture, sizes, request):
        alg = request.getfixturevalue(alg_fixture)
        for n in sizes:
            fops = functor_ops(kind, n, alg)
            draw, first = fops.drawer(random.Random(n)), {}
            draws = [draw() for _ in range(2000)]
            for value in draws:
                assert first.setdefault(value, value) is value
            assert len(first) < len(draws)  # values did recur
        sigma = predicate_drawer(random.Random(5), 3, 2)
        values = [sigma() for _ in range(100)]
        assert len({id(v) for v in values}) == len(set(values)) == 9

    def test_tables_hold_at_most_the_cap(self):
        # predicates of 3 values at 9 points (aneighbourhood/L2 at n = 2),
        # families at n = 4 and the monotone trie of L2 at n = 3 draw past
        # a table's cap, so each starts afresh on the way
        cap, L2 = functors.DRAW_TABLE_ENTRIES, build_builtin("lukasiewicz", 2)
        for kind, n in (
            (Kind.A_NEIGHBOURHOOD, 2), (Kind.DOUBLE_POWERSET, 4), (Kind.MONOTONE_NEIGHBOURHOOD, 3)
        ):
            draw, resets, before = functor_ops(kind, n, L2).drawer(random.Random(1)), 0, 0
            for _ in range(50_000):
                draw()
                held = draw.held()
                assert held <= cap
                resets, before = resets + (held < before), held
            assert resets > 0, kind


def test_every_operation_variant_has_one_arity():
    assert set(OP_ARITIES) == set(OP_VARIANTS)
    for name in PRESET_NAMES:
        alg = build_builtin("boolean") if name == "instantial" else build_builtin("lukasiewicz", 2)
        for spec in make_preset(name, alg).ops.values():
            assert spec.arity == OP_ARITIES[spec.variant], (name, spec)


# operand tuples up to which the locality check sweeps every one; beyond
# it (binary operations on monotone L2 tables) it sweeps those over a
# seeded pool of values
LOCALITY_TUPLES = 70_000


def _locality_cases():
    """Every operation variant that reads an operand locally, with every
    kind it applies to, over B2, and over L2 where FX depends on the algebra
    and has at most 200 values at two states."""
    B2, L2 = build_builtin("boolean"), build_builtin("lukasiewicz", 2)
    cases = []
    for variant, kinds in OP_VARIANTS.items():
        for kind in kinds if LOCAL_OPERANDS[variant] else ():
            for name, alg in (("B2", B2), ("L2", L2)):
                if name == "L2" and kind in (Kind.POWERSET, Kind.DOUBLE_POWERSET):
                    continue
                try:
                    values = list(functor_ops(kind, 2, alg).enumerate(200))
                except BudgetExceeded:
                    continue
                cases.append(pytest.param(variant, kind, alg, values, id=f"{variant}-{kind.value}-{name}"))
    return cases


@pytest.mark.parametrize("variant, kind, alg, values", _locality_cases())
def test_local_operands_are_read_at_the_state_only(variant, kind, alg, values):
    # LOCAL_OPERANDS lets a safety sweep compute one target per candidate
    # list of a local operand: changing that operand anywhere but at a state
    # must leave the output there unchanged
    fops = functor_ops(kind, 2, alg)
    op = OperationSpec(variant, OP_ARITIES[variant], variant)
    if len(values) ** (2 * op.arity) > LOCALITY_TUPLES:
        values = random.Random(f"{variant} {kind.value}").sample(values, 8)
    seen = {}  # (operand, state, the rest of the tuple) -> output there
    for gammas in product(product(values, repeat=2), repeat=op.arity):
        out = apply_op(op, gammas, fops)
        for i in LOCAL_OPERANDS[variant]:
            for y in range(2):
                key = (i, y, gammas[:i], gammas[i][y], gammas[i + 1:])
                assert seen.setdefault(key, out[y]) == out[y], (i, y, gammas)


def test_local_operands_come_first():
    # a safety sweep counts the squares it computes in canonical order only
    # while no local operand follows one that is not
    assert LOCAL_OPERANDS.keys() == OP_ARITIES.keys()
    for variant, local in LOCAL_OPERANDS.items():
        assert local == tuple(range(len(local))) and len(local) <= OP_ARITIES[variant], variant
