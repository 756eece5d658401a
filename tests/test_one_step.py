"""``one_step_witness`` against the scan-first reference.

The harness builds the witness first and scans the rank-1 axioms only when
H is not the assignment the witness induces; the reference scans every
axiom instance first.  Both must give the same witness, or name the same
first violated axiom at the same instance, on every H: a roundtrip from a
random witness alpha, with up to three entries set to other values.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvdl.algebra import algebra_by_name
from mvdl.errors import InvalidParameter
from mvdl.functors import Kind, functor_ops, predicate_space
from mvdl.harness import ONE_STEP_KINDS, one_step_assignment, one_step_witness

from reference_eval import reference_one_step_witness

ALGEBRAS = ["B2"] + [f"L{i}" for i in range(1, 6)] + [f"G{i}" for i in range(1, 6)]
VIOLATIONS = {
    "diamond-join",
    "diamond-constant",
    "threshold-bottom",
    "threshold-join",
    "threshold-monotonicity",
    "eval-monotonicity",
}


def _h_alpha(kind, alg, n, alpha) -> dict:
    """H_alpha by the closed formulas, one atom at a time."""
    if kind == "labelled-diamond":
        return {
            p: alg.bigjoin(alg.tensor(p[x], alpha[x]) for x in range(n))
            for p in predicate_space(alg.m, n)
        }
    if kind == "threshold":
        return {
            (r, s): 1 if alg.leq(r, alg.bigjoin(alpha[x] for x in range(n) if s >> x & 1)) else 0
            for r in range(1, alg.m)
            for s in range(1 << n)
        }
    return dict(zip(predicate_space(alg.m, n), alpha))


def _perturbed(kind, alg, n, rng, changes: int) -> dict:
    """A roundtrip H from a random witness, with ``changes`` entries set to
    another value (flipped between 0 and 1 for threshold)."""
    fkind = Kind.MONOTONE_NEIGHBOURHOOD if kind == "monotone-eval" else Kind.APOWERSET
    alpha = functor_ops(fkind, n, alg).drawer(rng)()
    H = _h_alpha(kind, alg, n, alpha)
    assert one_step_assignment(kind, alg, n, alpha) == H
    atoms = list(H)
    for _ in range(changes):
        atom = rng.choice(atoms)
        if kind == "threshold":
            H[atom] = 1 - H[atom]
        else:
            H[atom] = rng.choice([v for v in range(alg.m) if v != H[atom]])
    return H


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(ALGEBRAS),
    kind=st.sampled_from(ONE_STEP_KINDS),
    n=st.integers(1, 3),
    changes=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_first_matches_scan_first(name, kind, n, changes, seed):
    alg = algebra_by_name(name)
    H = _perturbed(kind, alg, n, random.Random(seed), changes)
    got = one_step_witness(kind, alg, n, H)
    assert got == reference_one_step_witness(kind, alg, n, H)
    if changes == 0:
        assert got.satisfiable


def test_every_violation_is_named():
    # seeded draws small enough that a few changed entries often keep some
    # axioms intact, so each axiom is the first one violated somewhere
    rng = random.Random(0x13)
    named = set()
    for name in ("B2", "L2", "L3", "G3"):
        alg = algebra_by_name(name)
        for kind in ONE_STEP_KINDS:
            for n in (1, 2):
                for _ in range(60):
                    H = _perturbed(kind, alg, n, rng, rng.randint(1, 3))
                    got = one_step_witness(kind, alg, n, H)
                    assert got == reference_one_step_witness(kind, alg, n, H)
                    if not got.satisfiable:
                        named.add(got.violation.axiom)
    assert named == VIOLATIONS


@pytest.mark.parametrize(
    "kind, change, named",
    [
        ("labelled-diamond", {(1, 1): 7}, "value 7 at predicate (1, 1)"),
        ("monotone-eval", {(0, 2): -1}, "value -1 at predicate (0, 2)"),
        ("monotone-eval", {(0, 2): 1.0}, "value 1.0 at predicate (0, 2)"),
        ("threshold", {(1, 1): 2}, "value 2 at threshold atom (1, 1)"),
        ("labelled-diamond", {(1, 0, 0): 1}, "(1, 0, 0), which is not a predicate"),
        ("threshold", {(0, 1): 0}, "(0, 1), which is not a threshold atom"),
        ("threshold", {(1, 4): 0}, "(1, 4), which is not a threshold atom"),
        ("threshold", {(1, 2): None}, "missing threshold atom (1, 2)"),
        ("monotone-eval", {(2, 2): None}, "missing predicate (2, 2)"),
    ],
)
def test_malformed_h_names_the_atom(kind, change, named):
    L2 = algebra_by_name("L2")
    H = one_step_assignment(kind, L2, 2, (0,) * 9 if kind == "monotone-eval" else (1, 2))
    for atom, value in change.items():
        if value is None:
            del H[atom]
        else:
            H[atom] = value
    with pytest.raises(InvalidParameter, match=re.escape(named)):
        one_step_witness(kind, L2, 2, H)
