"""Algebra kernel: builtins, residuation, law validation, term clones."""

import pytest

from mvdl.algebra import (
    MAX_BUILTIN_CHAIN,
    Algebra,
    algebra_by_name,
    build_builtin,
    chi_table,
    chi_term,
    derive_residuum,
    is_chi_definable,
    is_semiprimal,
    unary_term_closure,
    validate_flew,
)
from mvdl.errors import ClosureBudgetExceeded, InvalidParameter, NotAQuantale


def idx(alg, label):
    return alg.labels.index(label)


class TestBuiltins:
    def test_lukasiewicz2_tables(self, L2):
        half = idx(L2, "1/2")
        assert L2.tensor(half, half) == idx(L2, "0")
        assert L2.impl(half, 0) == half

    def test_goedel2_implication(self, G2):
        half = idx(G2, "1/2")
        assert G2.impl(half, 0) == 0
        assert G2.impl(0, half) == G2.top

    def test_boolean_tensor_is_meet(self, B2):
        assert B2.tensor_table == B2.meet_table

    def test_chain_invalid_n(self):
        with pytest.raises(InvalidParameter):
            build_builtin("lukasiewicz", 0)

    def test_name_resolution(self):
        assert algebra_by_name("B2").m == 2
        assert algebra_by_name("L3").m == 4
        assert algebra_by_name("G2").m == 3
        with pytest.raises(InvalidParameter):
            algebra_by_name("Q7")

    def test_builtins_are_shared(self):
        assert algebra_by_name("L2") is algebra_by_name("L2")
        assert algebra_by_name("B2") is algebra_by_name("B2")
        # a leading zero names the same chain
        assert algebra_by_name("G02") is algebra_by_name("G2")

    @pytest.mark.parametrize("family", ["L", "G"])
    def test_chain_size_is_bounded(self, family):
        assert algebra_by_name(f"{family}{MAX_BUILTIN_CHAIN}").m == MAX_BUILTIN_CHAIN + 1
        for name in (f"{family}{MAX_BUILTIN_CHAIN + 1}", family + "9" * 5000):
            with pytest.raises(InvalidParameter, match=name[:8]):
                algebra_by_name(name)

    def test_shared_clone_still_honours_a_smaller_budget(self):
        L3 = algebra_by_name("L3")
        assert len(L3.unary_term_closure()) == 64
        # the cached clone has 64 functions: a budget below that raises as a
        # first closure would, and one at or above it gets the cached clone
        with pytest.raises(ClosureBudgetExceeded, match="budget of 63 functions"):
            L3.unary_term_closure(63)
        assert L3.unary_term_closure(64) is L3.unary_term_closure()

    def test_chain_is_linear(self, L3):
        assert L3.linear

    def test_extras_install(self):
        alg = build_builtin("lukasiewicz", 2, chi=(2,), constants=(1,))
        assert alg.extras["chi_1"] == (0, 0, 2)
        assert alg.constants["c_1_2"] == 1


class TestResiduation:
    def test_boolean_residuum(self, B2):
        assert derive_residuum(2, B2.join_table, B2.tensor_table) == B2.impl_table

    def test_lukasiewicz2_residuum(self, L2):
        assert derive_residuum(3, L2.join_table, L2.tensor_table) == L2.impl_table

    def test_degenerate_single_element(self):
        assert derive_residuum(1, ((0,),), ((0,),)) == ((0,),)

    def test_every_builtin_residuates(self):
        for name in ("B2", "L2", "L3", "L4", "G2", "G3"):
            alg = algebra_by_name(name)
            assert derive_residuum(alg.m, alg.join_table, alg.tensor_table) == alg.impl_table

    def test_non_quantale_reports_witness(self):
        # meet on the 2x2 diamond-free poset is fine; break distributivity by
        # using a non-monotone "tensor" on the 3-chain
        join = [[max(x, y) for y in range(3)] for x in range(3)]
        tensor = [[0, 0, 2], [0, 0, 0], [2, 0, 2]]  # not monotone in its arguments
        with pytest.raises(NotAQuantale) as err:
            derive_residuum(3, join, tensor)
        assert len(err.value.witness) == 3


class TestValidation:
    @pytest.mark.parametrize("name", ["B2", "L2", "L3", "L5", "G2", "G5"])
    def test_builtins_pass(self, name):
        assert validate_flew(algebra_by_name(name)).ok

    def test_broken_unit_reports_monoid(self, B2):
        tensor = [list(r) for r in B2.tensor_table]
        tensor[1][1] = 0
        alg = Algebra(2, B2.meet_table, B2.join_table, tensor, B2.impl_table)
        report = validate_flew(alg)
        fams = {c.family for c in report.failures()}
        assert "monoid" in fams or "residuation" in fams
        unit = [c for c in report.checks if c.law == "unit"][0]
        assert not unit.ok and unit.witness == (1,)

    def test_patched_goedel_residuation_fails(self, G2):
        impl = [list(r) for r in G2.impl_table]
        impl[1][0] = 1  # impl(1/2, 0) patched from 0 to 1/2
        alg = Algebra(3, G2.meet_table, G2.join_table, G2.tensor_table, impl)
        report = validate_flew(alg)
        bad = [c for c in report.failures() if c.family == "residuation"]
        assert bad and len(bad[0].witness) == 3

    def test_residuation_exhaustive_for_builtins(self):
        for name in ("B2", "L2", "L3", "L4", "L5", "G2", "G3", "G4", "G5"):
            alg = algebra_by_name(name)
            for x in alg.elements():
                for y in alg.elements():
                    for z in alg.elements():
                        assert alg.leq(alg.tensor(x, y), z) == alg.leq(
                            x, alg.impl(y, z)
                        )

    def test_negation_bounds(self):
        for name in ("B2", "L2", "L3", "G2", "G3"):
            alg = algebra_by_name(name)
            assert alg.neg(0) == alg.top
            assert alg.neg(alg.top) == 0


class TestClone:
    def test_boolean_clone_is_everything(self, B2):
        assert len(unary_term_closure(B2)) == 4

    def test_single_element_clone(self):
        one = Algebra(1, ((0,),), ((0,),), ((0,),), ((0,),))
        assert len(unary_term_closure(one)) == 1

    def test_l2_contains_chi_top(self, L2):
        clone = unary_term_closure(L2)
        assert (0, 0, 2) in clone
        term = chi_term(L2, {2})
        assert term is not None

    def test_clone_idempotent(self, L2):
        clone = unary_term_closure(L2)
        # closing again from the closure's tables adds nothing: every pairwise
        # combination is already present
        tables = list(clone.functions)
        binops = (L2.meet_table, L2.join_table, L2.tensor_table, L2.impl_table)
        for f in tables:
            for g in tables:
                for table in binops:
                    assert tuple(table[a][b] for a, b in zip(f, g)) in clone

    def test_budget_exceeded(self, L3):
        with pytest.raises(ClosureBudgetExceeded):
            unary_term_closure(L3, budget=5)

    def test_pinned_clone_sizes(self, L2, L3, G2):
        # oracle regression values, computed once by the closure
        assert len(unary_term_closure(L2)) == 12
        assert len(unary_term_closure(L3)) == 64
        assert len(unary_term_closure(G2)) == 6

    def test_extras_enlarge_clone(self):
        g2 = build_builtin("goedel", 2, chi=(2,))
        assert is_chi_definable(g2, {2})
        assert len(unary_term_closure(g2)) > 6


class TestSemiprimality:
    def test_boolean(self, B2):
        assert is_semiprimal(B2)

    def test_lukasiewicz(self, L2, L3):
        assert is_semiprimal(L2)
        assert is_semiprimal(L3)

    def test_lukasiewicz4(self):
        assert is_semiprimal(build_builtin("lukasiewicz", 4))

    def test_goedel_not_semiprimal_pinned(self, G2):
        # oracle outcome, pinned: the Goedel chain cannot define crisp truth
        assert not is_semiprimal(G2)
        assert not is_chi_definable(G2, {1})
        assert not is_chi_definable(G2, {2})

    def test_chi_table_shape(self, L2):
        assert chi_table(L2, {0, 2}) == (2, 0, 2)

    def test_semiprimal_expansion(self, G2):
        expanded = build_builtin("goedel", 2, chi=(0, 1, 2))
        assert is_semiprimal(expanded)
