"""FValues, liftings, models and the evaluator."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdl import syntax as sx
from mvdl.algebra import Algebra, build_builtin
from mvdl.errors import BudgetExceeded, IncompatibleVariant, UnknownAtom, UnknownIdentifier
from mvdl.functors import Kind, functor_ops, predicate_space
from mvdl.semantics import LiftingSpec, Model, apply_lifting, eval_formula
from mvdl.syntax import parse

from conftest import random_formula, random_model
from reference_eval import reference_is_monotone


class TestEnumeration:
    def test_powerset_count(self, L2):
        fops = functor_ops(Kind.POWERSET, 2, L2)
        assert len(list(fops.enumerate())) == 4

    def test_apowerset_count(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        assert len(list(fops.enumerate())) == 9

    def test_monotone_count_n1_m2(self, B2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, B2)
        values = list(fops.enumerate())
        assert len(values) == 3
        assert all(fops.is_monotone(v) for v in values)

    def test_monotone_backtracking_matches_filter(self, L2):
        # independent oracle: filter the full table space for monotonicity
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, L2)
        direct = set(fops.enumerate())
        full = functor_ops(Kind.A_NEIGHBOURHOOD, 1, L2)
        filtered = {v for v in full.enumerate() if reference_is_monotone(fops, v)}
        assert direct == filtered

    def test_double_powerset_count(self, B2):
        fops = functor_ops(Kind.DOUBLE_POWERSET, 2, B2)
        assert len(list(fops.enumerate())) == 16

    def test_budget_exceeded_reports_count(self, L2):
        fops = functor_ops(Kind.A_NEIGHBOURHOOD, 2, L2)
        with pytest.raises(BudgetExceeded) as err:
            list(fops.enumerate(budget=100))
        assert err.value.count == 3**9

    def test_each_value_once(self, L2):
        fops = functor_ops(Kind.APOWERSET, 2, L2)
        values = list(fops.enumerate())
        assert len(values) == len(set(values))

    def test_random_monotone_valid(self, L2):
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 2, L2)
        value = fops.drawer(random.Random(5))
        for _ in range(50):
            assert fops.is_monotone(value())


# B2 x B2 is not a chain, so the lexicographic order of its predicates is not
# a linear extension of their pointwise order
_SQUARE = Algebra(
    4,
    meet=[[x & y for y in range(4)] for x in range(4)],
    join=[[x | y for y in range(4)] for x in range(4)],
    tensor=[[x & y for y in range(4)] for x in range(4)],
    impl=[[(~x | y) & 3 for y in range(4)] for x in range(4)],
)
_MONOTONE_ALGEBRAS = [
    build_builtin("boolean"),
    build_builtin("lukasiewicz", 2),
    build_builtin("goedel", 2),
    build_builtin("lukasiewicz", 3),
    _SQUARE,
]


@st.composite
def monotone_candidates(draw):
    """A neighbourhood table near the monotone ones: a random monotone table
    with up to three entries overwritten, or a uniform table."""
    alg = draw(st.sampled_from(_MONOTONE_ALGEBRAS))
    n = draw(st.integers(1, 2))
    fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, n, alg)
    size = alg.m**n
    entry = st.integers(0, alg.m - 1)
    if draw(st.booleans()):
        return fops, tuple(draw(st.lists(entry, min_size=size, max_size=size)))
    table = list(fops.drawer(random.Random(draw(st.integers(0, 2**32))))())
    for _ in range(draw(st.integers(0, 3))):
        table[draw(st.integers(0, size - 1))] = draw(entry)
    return fops, tuple(table)


class TestMonotoneCheck:
    @settings(max_examples=600, deadline=None)
    @given(monotone_candidates())
    def test_matches_pairwise_scan(self, case):
        fops, table = case
        assert fops.is_monotone(table) == reference_is_monotone(fops, table)

    def test_every_table_at_n1(self, L2):
        # exhaustive at one state: 3^3 tables over L2, 10 of them monotone
        fops = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 1, L2)
        full = functor_ops(Kind.A_NEIGHBOURHOOD, 1, L2)
        verdicts = [(fops.is_monotone(v), reference_is_monotone(fops, v)) for v in full.enumerate()]
        assert all(a == b for a, b in verdicts)
        assert sum(a for a, _ in verdicts) == 10


class TestLiftings:
    def test_box_crisp_empty_is_top(self, crisp_l2):
        spec = crisp_l2.liftings["box"]
        assert apply_lifting(spec, [(0, 0)], 0, crisp_l2, 2) == crisp_l2.truth.top

    def test_diamond_labelled_tensor(self, labelled_l2):
        spec = labelled_l2.liftings["dia"]
        # single successor weighted 1/2 against value 1/2 collapses to 0
        assert apply_lifting(spec, [(0, 1)], (0, 1), labelled_l2, 2) == 0

    def test_instantial_empty_witness(self, instantial):
        spec = instantial.liftings["inst1"]
        assert apply_lifting(spec, [(0, 0)], frozenset({0}), instantial, 2) == 1
        assert apply_lifting(spec, [(0, 0)], frozenset(), instantial, 2) == 0

    def test_threshold_two_valued(self, threshold_l2):
        spec = threshold_l2.liftings["dia_1"]
        # rows never reach 1 on S = {x}
        assert apply_lifting(spec, [(1, 0)], (1, 0), threshold_l2, 2) == 0
        assert apply_lifting(spec, [(1, 0)], (2, 0), threshold_l2, 2) == 1

    def test_incompatible_variant(self, crisp_l2):
        spec = LiftingSpec("dia", 1, "diamond-labelled")
        with pytest.raises(IncompatibleVariant):
            apply_lifting(spec, [(0, 0)], 0, crisp_l2, 2)

    @pytest.mark.parametrize(
        "preset_fixture",
        ["crisp_l2", "labelled_l2", "threshold_l2", "instantial", "game_b2", "game_l2"],
    )
    def test_naturality(self, preset_fixture, request):
        # lambda_Y(sigma) . Ff = lambda_X(sigma . f) over all enumerable
        # values and every map between carriers of size one and two
        config = request.getfixturevalue(preset_fixture)
        truth = config.truth
        for n_src in (1, 2):
            fops = config.fops(n_src)
            if config.kind is Kind.MONOTONE_NEIGHBOURHOOD and truth.m > 2 and n_src > 1:
                continue  # covered at n_src = 1; n = 2 tables checked sampled
            values = list(fops.enumerate())
            for n_tgt in (1, 2):
                preds_tgt = predicate_space(truth.m, n_tgt)
                for f in product(range(n_tgt), repeat=n_src):
                    for t in values:
                        mapped = fops.map(f, n_tgt, t)
                        for spec in config.liftings.values():
                            for sigmas in product(preds_tgt, repeat=spec.arity):
                                pulled = tuple(
                                    tuple(s[f[x]] for x in range(n_src))
                                    for s in sigmas
                                )
                                assert apply_lifting(
                                    spec, sigmas, mapped, config, n_tgt
                                ) == apply_lifting(spec, pulled, t, config, n_src)


class TestEval:
    def test_crisp_diamond_single_successor(self, crisp_l2):
        m = Model(2, crisp_l2, atoms={"a": (0b10, 0)}, valuation={"p": (0, 1)})
        assert eval_formula(m, parse("<a> p", crisp_l2.signature)) == (1, 0)

    def test_crisp_box_no_successors(self, crisp_l2):
        m = Model(2, crisp_l2, atoms={"a": (0b10, 0)}, valuation={"p": (0, 1)})
        assert eval_formula(m, parse("[a] p", crisp_l2.signature))[1] == 2

    def test_labelled_composition_collapses(self, labelled_l2):
        m = Model(
            3,
            labelled_l2,
            atoms={
                "a": ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
                "b": ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
            },
            valuation={"p": (0, 0, 2)},
        )
        assert eval_formula(m, parse("<a;b> p", labelled_l2.signature))[0] == 0

    def test_modality_free_matches_pointwise_oracle(self, labelled_l2):
        rng = random.Random(17)
        truth = labelled_l2.truth

        def oracle(node, valuation, x):
            if isinstance(node, sx.Prop):
                return valuation[node.name][x]
            if node.symbol == "0":
                return 0
            if node.symbol == "1":
                return truth.top
            a = oracle(node.args[0], valuation, x)
            b = oracle(node.args[1], valuation, x)
            table = {
                "/\\": truth.meet_table,
                "\\/": truth.join_table,
                "*": truth.tensor_table,
                "->": truth.impl_table,
            }[node.symbol]
            return table[a][b]

        def conn_only(depth):
            if depth <= 0 or rng.random() < 0.3:
                return rng.choice(
                    [sx.Prop("p"), sx.Prop("q"), sx.TOP, sx.BOT]
                )
            symbol = rng.choice(["/\\", "\\/", "*", "->"])
            return sx.Conn(symbol, (conn_only(depth - 1), conn_only(depth - 1)))

        for _ in range(200):
            model = random_model(rng, labelled_l2, 3)
            phi = conn_only(4)
            got = eval_formula(model, phi)
            want = tuple(oracle(phi, model.valuation, x) for x in range(3))
            assert got == want

    def test_eval_deterministic_across_sessions(self, labelled_l2):
        rng = random.Random(23)
        model = random_model(rng, labelled_l2, 3)
        phi = random_formula(rng, labelled_l2, depth=5)
        assert eval_formula(model, phi) == eval_formula(model, phi)
        session = model.session()
        assert session.eval(phi) == session.eval(phi)

    def test_interpret_action_wrapper(self, crisp_b2):
        from mvdl.semantics import interpret_action

        m = Model(2, crisp_b2, atoms={"a": (0b10, 0)}, valuation={"p": (0, 1)})
        assert interpret_action(m, parse("a", crisp_b2.signature, "action")) == (0b10, 0)
        star = interpret_action(m, parse("a*", crisp_b2.signature, "action"))
        assert star == (0b11, 0b10)

    def test_uninterpreted_prop(self, crisp_b2):
        m = Model(1, crisp_b2, atoms={"a": (0,)}, valuation={})
        with pytest.raises(UnknownIdentifier):
            eval_formula(m, parse("p", crisp_b2.signature))

    def test_uninterpreted_atom(self, crisp_b2):
        m = Model(1, crisp_b2, atoms={}, valuation={"p": (0,)})
        with pytest.raises(UnknownAtom):
            eval_formula(m, parse("<a> p", crisp_b2.signature))

    def test_threshold_formula_is_two_valued(self, threshold_l2):
        m = Model(
            2,
            threshold_l2,
            atoms={"a": ((1, 0), (0, 2))},
            valuation={"p": (1, 0)},
        )
        row = eval_formula(m, parse("<a:dia_1_2> p", threshold_l2.signature))
        assert set(row) <= {0, 1}
        # state 0 reaches p-state 0 with weight 1/2
        assert row[0] == 1

    def test_game_eval(self, game_l2):
        fops = game_l2.fops(1)
        # neighbourhood value: the identity on predicates (monotone)
        table = tuple(p[0] for p in predicate_space(3, 1))
        m = Model(1, game_l2, atoms={"a": (table,)}, valuation={"p": (1,)})
        assert eval_formula(m, parse("<a> p", game_l2.signature)) == (1,)


class TestDegenerateAlgebra:
    def test_one_element_pipeline(self):
        # the one-element algebra collapses everything to its single value
        from mvdl.algebra import Algebra
        from mvdl.presets import make_preset
        from mvdl.reduction import builtin_rules, reduce_full

        one = Algebra(1, ((0,),), ((0,),), ((0,),), ((0,),), labels=["0"])
        config = make_preset("pdl-labelled", one)
        registry = builtin_rules(config)
        assert registry.complete
        model = Model(2, config, atoms={"a": ((0, 0), (0, 0))}, valuation={"p": (0, 0)})
        phi = parse("<a;?t(p)> p -> [a+a] p", config.signature)
        assert eval_formula(model, phi) == (0, 0)
        assert eval_formula(model, reduce_full(phi, registry)) == (0, 0)


class TestModelValidation:
    def test_wrong_length_rejected(self, crisp_b2):
        with pytest.raises(Exception):
            Model(2, crisp_b2, atoms={"a": (0,)}, valuation={})

    def test_monotone_values_enforced(self, game_b2):
        bad = (1, 0, 0, 0)  # N(empty)=1 but N(full)=0
        with pytest.raises(Exception):
            Model(1, game_b2, atoms={"a": (bad[:2],)}, valuation={})

    def test_valuation_range(self, crisp_b2):
        with pytest.raises(Exception):
            Model(1, crisp_b2, atoms={}, valuation={"p": (7,)})
