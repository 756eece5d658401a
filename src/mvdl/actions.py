"""Coalgebra operations and tests: the dynamic part of the semantics.

A coalgebra over a model carrier is a tuple of n FValues, one per state.
Operations build composed coalgebras; tests turn a predicate into one.
Composition against a fixed second argument is exposed as a reusable map
(`*_map` helpers) because the verification sweeps revisit the same right
operand for many left operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem, or_
from typing import Callable, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded, IncompatibleVariant
from .functors import (
    Kind,
    NEIGHBOURHOOD_KINDS,
    FunctorOps,
    predicate_index,
    predicate_space,
)

DEFAULT_ITERATE_CAP = 1_000_000

Coalgebra = tuple

OP_VARIANTS = {
    "union": (Kind.POWERSET,),
    "join-pw": (Kind.APOWERSET, *NEIGHBOURHOOD_KINDS),
    "meet-pw": (Kind.APOWERSET, *NEIGHBOURHOOD_KINDS),
    "dual": NEIGHBOURHOOD_KINDS,
    "kleisli": (Kind.POWERSET, Kind.APOWERSET, *NEIGHBOURHOOD_KINDS),
    "double-seq": (Kind.DOUBLE_POWERSET,),
    "double-star": (Kind.DOUBLE_POWERSET,),
    "nbh-union": (Kind.DOUBLE_POWERSET,),
    "star": (Kind.POWERSET, Kind.APOWERSET, *NEIGHBOURHOOD_KINDS, Kind.DOUBLE_POWERSET),
    "counter-domain": (
        Kind.POWERSET,
        Kind.APOWERSET,
        *NEIGHBOURHOOD_KINDS,
        Kind.DOUBLE_POWERSET,
    ),
}

OP_ARITIES = {
    "union": 2, "join-pw": 2, "meet-pw": 2, "kleisli": 2, "double-seq": 2,
    "double-star": 2, "nbh-union": 2, "dual": 1, "star": 1, "counter-domain": 1,
}

# the operands an operation reads only at the evaluated state: its output at
# a state x depends on such an operand only through the operand's value at x
LOCAL_OPERANDS = {
    "union": (0, 1), "join-pw": (0, 1), "meet-pw": (0, 1), "nbh-union": (0, 1),
    "dual": (0,), "counter-domain": (0,),
    "kleisli": (0,), "double-seq": (0,), "double-star": (0,),
    "star": (),
}

TEST_VARIANTS = {
    "test-p": (Kind.POWERSET, Kind.APOWERSET, *NEIGHBOURHOOD_KINDS),
    "labelled-unit": (Kind.APOWERSET,),
    "angelic": NEIGHBOURHOOD_KINDS,
    "instantial-p": (Kind.DOUBLE_POWERSET,),
}


@dataclass(frozen=True)
class OperationSpec:
    id: str
    arity: int
    variant: str

    def check_kind(self, kind: Kind) -> None:
        if kind not in OP_VARIANTS.get(self.variant, ()):
            raise IncompatibleVariant(
                f"operation variant {self.variant!r} does not apply to {kind.value}"
            )


@dataclass(frozen=True)
class TestSpec:
    id: str
    variant: str
    subset: frozenset[int] = frozenset()  # P for test-p / instantial-p

    def check_kind(self, kind: Kind) -> None:
        if kind not in TEST_VARIANTS.get(self.variant, ()):
            raise IncompatibleVariant(
                f"test variant {self.variant!r} does not apply to {kind.value}"
            )


# -- composition helpers -------------------------------------------------


def kleisli_compose_map(fops: FunctorOps, g2: Coalgebra) -> Callable:
    """t |-> (t ; g2) for a single source value t."""
    kind, n, alg = fops.kind, fops.n, fops.alg
    if kind is Kind.POWERSET:
        def pmap(t: int) -> int:
            out = 0
            for y in range(n):
                if t >> y & 1:
                    out |= g2[y]
            return out

        return pmap
    if kind is Kind.APOWERSET:
        jt, tt = alg.join_table, alg.tensor_table

        def amap(t: tuple) -> tuple:
            out = []
            for z in range(n):
                acc = 0
                for y in range(n):
                    acc = jt[acc][tt[t[y]][g2[y][z]]]
                out.append(acc)
            return tuple(out)

        return amap
    if kind in NEIGHBOURHOOD_KINDS:
        # ev_sigma . g2, indexed by the sigma being looked up
        jmap = list(map(predicate_index(alg.m, n).__getitem__, zip(*g2)))

        def nmap(t: tuple) -> tuple:
            return tuple(map(t.__getitem__, jmap))

        return nmap
    raise IncompatibleVariant(f"kleisli does not apply to {kind.value}")


def double_seq_map(fops: FunctorOps, g2: Coalgebra) -> Callable:
    """t |-> (t ; g2) for the double powerset sequential composition: each
    member z of t yields the union of every subfamily of its states'
    successor families that meets the family of each state in z."""
    n = fops.n
    unions: dict[int, frozenset] = {}  # z -> the unions it yields

    def member(zmask: int) -> frozenset:
        covers: dict[int, int] = {}  # successor -> the states of z it serves
        for y in range(n):
            if zmask >> y & 1:
                for u in g2[y]:
                    covers[u] = covers.get(u, 0) | 1 << y
        reached = {(0, 0)}  # (states met, union) of the subfamilies so far
        for u, cover in covers.items():
            reached |= {(met | cover, union | u) for met, union in reached}
        want = zmask & ((1 << n) - 1)
        return frozenset(union for met, union in reached if met == want)

    def dmap(t: frozenset) -> frozenset:
        out: set[int] = set()
        for zmask in t:
            got = unions.get(zmask)
            if got is None:
                got = unions[zmask] = member(zmask)
            out |= got
        return frozenset(out)

    return dmap


def double_star_map(fops: FunctorOps, g2: Coalgebra) -> Callable:
    """t |-> (t (star) g2): collect g2(y) over all y in some member of t."""
    n = fops.n

    def smap(t: frozenset) -> frozenset:
        reach = 0
        for ymask in t:
            reach |= ymask
        out: set[int] = set()
        for y in range(n):
            if reach >> y & 1:
                out |= g2[y]
        return frozenset(out)

    return smap


COMPOSITION_VARIANTS = ("kleisli", "double-seq", "double-star")
POINTWISE_VARIANTS = ("union", "nbh-union", "join-pw", "meet-pw")
UNARY_STEP_VARIANTS = ("dual", "counter-domain")


def _nbh_union(u: frozenset, v: frozenset) -> frozenset:
    return frozenset(z1 | z2 for z1 in u for z2 in v)


def pointwise_step(alg: Algebra, variant: str) -> Callable:
    """The one-step map ``(u, v) |-> w`` of a binary pointwise operation:
    its output at a state from the two operands' FValues there."""
    if variant == "union":
        return or_
    if variant == "nbh-union":
        return _nbh_union
    if variant in ("join-pw", "meet-pw"):
        table = alg.join_table if variant == "join-pw" else alg.meet_table

        def lattice(u: tuple, v: tuple) -> tuple:
            return tuple(map(getitem, map(table.__getitem__, u), v))

        return lattice
    raise IncompatibleVariant(f"{variant!r} is not a pointwise variant")


def unary_step(fops: FunctorOps, variant: str) -> Callable:
    """The one-step map ``(x, t) |-> w`` of a unary local operation: its
    output at state x from the operand's FValue t there."""
    if variant == "dual":
        neg, negmap = fops.alg.neg, _neg_index_map(fops.alg, fops.n)
        return lambda x, t: tuple(neg(t[j]) for j in negmap)
    if variant == "counter-domain":
        bottom, unit = fops.bottom(), fops.unit
        return lambda x, t: unit(x) if t == bottom else bottom
    raise IncompatibleVariant(f"{variant!r} is not a unary local variant")


def composition_map(fops: FunctorOps, variant: str, g2: Coalgebra) -> Callable:
    if variant == "kleisli":
        return kleisli_compose_map(fops, g2)
    if variant == "double-seq":
        return double_seq_map(fops, g2)
    if variant == "double-star":
        return double_star_map(fops, g2)
    raise IncompatibleVariant(f"{variant!r} is not a composition variant")


@lru_cache(maxsize=None)
def _neg_index_map(alg: Algebra, n: int) -> tuple[int, ...]:
    index = predicate_index(alg.m, n)
    return tuple(
        index[tuple(alg.neg(v) for v in p)] for p in predicate_space(alg.m, n)
    )


def apply_op(op: OperationSpec, gammas: Sequence[Coalgebra], fops: FunctorOps) -> Coalgebra:
    """Apply one coalgebra operation; all inputs share the model carrier."""
    op.check_kind(fops.kind)
    if len(gammas) != op.arity:
        raise IncompatibleVariant(
            f"operation {op.id!r} has arity {op.arity}, got {len(gammas)} coalgebras"
        )
    n, alg, variant = fops.n, fops.alg, op.variant
    if variant in POINTWISE_VARIANTS:
        g1, g2 = gammas
        return tuple(map(pointwise_step(alg, variant), g1, g2))
    if variant in UNARY_STEP_VARIANTS:
        (g,) = gammas
        return tuple(map(unary_step(fops, variant), range(n), g))
    if variant in COMPOSITION_VARIANTS:
        g1, g2 = gammas
        cmap = composition_map(fops, variant, g2)
        return tuple(cmap(g1[x]) for x in range(n))
    if variant == "star":
        (g,) = gammas
        return kleisli_star(fops, g)
    raise IncompatibleVariant(f"unknown operation variant {variant!r}")


def kleisli_star(fops: FunctorOps, gamma: Coalgebra, cap: int = DEFAULT_ITERATE_CAP) -> Coalgebra:
    """Join of the iterate sequence eta, gamma;eta, gamma;(gamma;eta), ...

    The value space is finite, so the sequence is eventually periodic; the
    join over the detected orbit equals the join over all iterates.
    """
    n = fops.n
    seq_variant = "double-seq" if fops.kind is Kind.DOUBLE_POWERSET else "kleisli"
    current = tuple(fops.unit(x) for x in range(n))
    seen = set()
    acc = tuple(fops.bottom() for _ in range(n))
    steps = 0
    # compose against the *previous iterate*: gamma^[i+1] = gamma ; gamma^[i]
    while current not in seen:
        seen.add(current)
        acc = tuple(fops.join2(acc[x], current[x]) for x in range(n))
        cmap = composition_map(fops, seq_variant, current)
        current = tuple(cmap(gamma[x]) for x in range(n))
        steps += 1
        if steps > cap:
            raise BudgetExceeded(
                f"iteration orbit exceeded cap of {cap} steps", count=steps
            )
    return acc


def embed_truth(truth: Algebra, struct: Algebra, value: int) -> int:
    """Carry a truth value into the structure algebra.

    The algebras coincide in every preset except the two-valued ones, where
    0 and 1 map to the structure bottom and top.
    """
    if truth is struct or truth == struct:
        return value
    return struct.top if value == truth.top else 0


def apply_test(
    test: TestSpec,
    sigma: Sequence[int],
    fops: FunctorOps,
    truth: Algebra,
) -> Coalgebra:
    """Build the test coalgebra for predicate ``sigma`` (truth-algebra valued)."""
    test.check_kind(fops.kind)
    n, alg = fops.n, fops.alg
    if test.variant == "test-p":
        bottom = fops.bottom()
        return tuple(
            fops.unit(x) if sigma[x] in test.subset else bottom for x in range(n)
        )
    if test.variant == "instantial-p":
        return tuple(
            frozenset({1 << x}) if sigma[x] in test.subset else frozenset()
            for x in range(n)
        )
    if test.variant == "labelled-unit":
        return tuple(
            tuple(
                embed_truth(truth, alg, sigma[x]) if y == x else 0 for y in range(n)
            )
            for x in range(n)
        )
    if test.variant == "angelic":
        preds = predicate_space(alg.m, n)
        tt = alg.tensor_table
        return tuple(
            tuple(tt[p[x]][sigma[x]] for p in preds) for x in range(n)
        )
    raise IncompatibleVariant(f"unknown test variant {test.variant!r}")
