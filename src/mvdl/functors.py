"""Finite functor values and the per-kind structure the semantics needs.

One FValue is a single state's transition structure:

  POWERSET              int bitmask over the carrier
  APOWERSET             tuple of algebra indices, one per state (a row)
  A_NEIGHBOURHOOD       tuple of algebra indices, one per predicate in
                        canonical order (lexicographic on predicate rows)
  MONOTONE_NEIGHBOURHOOD  same, restricted to monotone tables
  DOUBLE_POWERSET       frozenset of bitmasks

All representations are hashable so coalgebras (tuples of FValues) can key
caches and drive the cycle detection in iteration.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded, InvalidParameter

DEFAULT_ENUM_BUDGET = 1_000_000


class Kind(Enum):
    POWERSET = "powerset"
    APOWERSET = "apowerset"
    A_NEIGHBOURHOOD = "aneighbourhood"
    MONOTONE_NEIGHBOURHOOD = "monotone-aneighbourhood"
    DOUBLE_POWERSET = "double-powerset"


NEIGHBOURHOOD_KINDS = (Kind.A_NEIGHBOURHOOD, Kind.MONOTONE_NEIGHBOURHOOD)


@lru_cache(maxsize=None)
def predicate_space(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All predicates X -> A in canonical (lexicographic) order."""
    return tuple(product(range(m), repeat=n))


@lru_cache(maxsize=None)
def predicate_index(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {p: i for i, p in enumerate(predicate_space(m, n))}


def fvalue_count(kind: Kind, n: int, m: int) -> int:
    """Size of FX (unrestricted table count for the monotone kind)."""
    if kind is Kind.POWERSET:
        return 1 << n
    if kind is Kind.APOWERSET:
        return m**n
    if kind in NEIGHBOURHOOD_KINDS:
        return m ** (m**n)
    return 1 << (1 << n)


class FunctorOps:
    """Unit, bottom, join and enumeration for one kind at one carrier size.

    ``alg`` is the structure algebra labelling the transitions; the powerset
    kinds ignore it except as a source of the two crisp values.
    """

    def __init__(self, kind: Kind, n: int, alg: Algebra):
        self.kind = kind
        self.n = n
        self.alg = alg

    # -- monad data --------------------------------------------------
    def unit(self, x: int):
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.POWERSET:
            return 1 << x
        if kind is Kind.APOWERSET:
            return tuple(alg.top if y == x else 0 for y in range(n))
        if kind in NEIGHBOURHOOD_KINDS:
            return tuple(p[x] for p in predicate_space(alg.m, n))
        return frozenset({1 << x})  # double unit {{x}}

    def bottom(self):
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.POWERSET:
            return 0
        if kind is Kind.APOWERSET:
            return (0,) * n
        if kind in NEIGHBOURHOOD_KINDS:
            return (0,) * (alg.m**n)
        return frozenset()

    def join2(self, a, b):
        kind = self.kind
        if kind is Kind.POWERSET:
            return a | b
        if kind is Kind.DOUBLE_POWERSET:
            return a | b
        jt = self.alg.join_table
        return tuple(jt[u][v] for u, v in zip(a, b))

    def join(self, values: Iterable):
        out = self.bottom()
        for v in values:
            out = self.join2(out, v)
        return out

    # -- functor action on maps --------------------------------------
    def map(self, f: tuple[int, ...], n_target: int, value):
        """Ff applied to one value, for f: X -> Y given as an index tuple."""
        kind, alg = self.kind, self.alg
        if kind is Kind.POWERSET:
            out = 0
            for x in range(self.n):
                if value >> x & 1:
                    out |= 1 << f[x]
            return out
        if kind is Kind.APOWERSET:
            rows = [0] * n_target
            jt = alg.join_table
            for x in range(self.n):
                rows[f[x]] = jt[rows[f[x]]][value[x]]
            return tuple(rows)
        if kind in NEIGHBOURHOOD_KINDS:
            return tuple(value[i] for i in _pullback_index(alg.m, self.n, tuple(f), n_target))
        out = set()
        for mask in value:
            img = 0
            for x in range(self.n):
                if mask >> x & 1:
                    img |= 1 << f[x]
            out.add(img)
        return frozenset(out)

    # -- validity and enumeration -------------------------------------
    def is_valid(self, value) -> bool:
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.POWERSET:
            return isinstance(value, int) and 0 <= value < (1 << n)
        if kind is Kind.APOWERSET:
            return (
                isinstance(value, tuple)
                and len(value) == n
                and all(0 <= v < alg.m for v in value)
            )
        if kind in NEIGHBOURHOOD_KINDS:
            if not (
                isinstance(value, tuple)
                and len(value) == alg.m**n
                and all(0 <= v < alg.m for v in value)
            ):
                return False
            if kind is Kind.MONOTONE_NEIGHBOURHOOD:
                return self.is_monotone(value)
            return True
        return isinstance(value, frozenset) and all(
            isinstance(mask, int) and 0 <= mask < (1 << n) for mask in value
        )

    def is_monotone(self, table: Sequence[int]) -> bool:
        """N(s1) <= N(s2) whenever s1 <= s2 pointwise, checked on the cached
        cover pairs of the predicate poset: a finite order is the transitive
        closure of its covers."""
        _, covers = _pred_covers(self.alg, self.n)
        leq = self.alg._leq
        return all(
            leq[table[j]][table[i]] for i, lower in enumerate(covers) for j in lower
        )

    def count(self) -> int:
        return fvalue_count(self.kind, self.n, self.alg.m)

    def enumerate(self, budget: int = DEFAULT_ENUM_BUDGET) -> Iterator:
        """Each valid FValue exactly once; monotone tables are generated
        directly by backtracking over the predicate poset, not filtered."""
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.MONOTONE_NEIGHBOURHOOD:
            yield from self._enumerate_monotone(budget)
            return
        total = self.count()
        if total > budget:
            raise BudgetExceeded(
                f"{kind.value} at n={n} has {total} values, budget is {budget}",
                count=total,
            )
        if kind is Kind.POWERSET:
            yield from range(1 << n)
        elif kind is Kind.APOWERSET:
            yield from product(range(alg.m), repeat=n)
        elif kind is Kind.A_NEIGHBOURHOOD:
            yield from product(range(alg.m), repeat=alg.m**n)
        else:
            subsets = list(range(1 << n))
            for r in range(1 << len(subsets)):
                yield frozenset(s for s in subsets if r >> s & 1)

    def _enumerate_monotone(self, budget: int) -> Iterator[tuple[int, ...]]:
        steps, ups = _monotone_steps(self.alg, self.n)
        jt = self.alg.join_table
        emitted = 0
        table = [0] * len(steps)

        def rec(pos: int) -> Iterator[tuple[int, ...]]:
            nonlocal emitted
            if pos == len(steps):
                emitted += 1
                if emitted > budget:
                    raise BudgetExceeded(
                        f"monotone tables at n={self.n} exceed budget {budget}",
                        count=emitted,
                    )
                yield tuple(table)
                return
            i, covers = steps[pos]
            lower = 0
            for j in covers:
                lower = jt[lower][table[j]]
            for v in ups[lower]:
                table[i] = v
                yield from rec(pos + 1)
            table[i] = 0

        yield from rec(0)

    def random_value(self, rng: random.Random):
        """One pseudo-random FValue, as ``drawer(rng)`` draws it."""
        return self.drawer(rng)()

    def drawer(self, rng: random.Random) -> Callable[[], object]:
        """A closure drawing one pseudo-random FValue from ``rng`` per call.

        A powerset value is ``rng.randrange(2**n)``, a row or table one
        ``rng.randrange(m)`` per entry, a monotone table one ``rng.choice``
        per predicate in a linear extension (always valid, not uniform) and
        a double-powerset value one ``rng.random() < 0.5`` per mask.  The
        integer draws are inlined as CPython 3.11's
        ``random._randbelow_with_getrandbits`` makes them (``k =
        size.bit_length()`` bits, drawn again while they are at least
        size), so they make the same ``getrandbits`` calls and give the
        same values.
        """
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.POWERSET:
            draw = predicate_drawer(rng, 1 << n, 1)
            return lambda: draw()[0]
        if kind is Kind.APOWERSET:
            return predicate_drawer(rng, alg.m, n)
        if kind is Kind.A_NEIGHBOURHOOD:
            return predicate_drawer(rng, alg.m, alg.m**n)
        if kind is Kind.DOUBLE_POWERSET:
            unit, masks = rng.random, range(1 << n)
            return lambda: frozenset(mask for mask in masks if unit() < 0.5)
        steps, ups = _monotone_steps(alg, n)
        jt, bits = alg.join_table, rng.getrandbits
        widths = [(len(up), len(up).bit_length()) for up in ups]

        def draw() -> tuple[int, ...]:
            table = [0] * len(steps)
            for i, covers in steps:
                # the table is monotone on the predicates drawn so far, so
                # the covers of i join to what everything below i joins to
                lower = 0
                for j in covers:
                    lower = jt[lower][table[j]]
                size, k = widths[lower]
                r = bits(k)
                while r >= size:
                    r = bits(k)
                table[i] = ups[lower][r]
            return tuple(table)

        return draw


def predicate_drawer(rng: random.Random, m: int, n: int) -> Callable[[], tuple[int, ...]]:
    """A closure drawing ``tuple(rng.randrange(m) for _ in range(n))`` per
    call, with the same ``getrandbits`` calls (see ``FunctorOps.drawer``)."""
    bits, k, places = rng.getrandbits, m.bit_length(), range(n)

    def draw() -> tuple[int, ...]:
        out = []
        for _ in places:
            r = bits(k)
            while r >= m:
                r = bits(k)
            out.append(r)
        return tuple(out)

    return draw


def int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """A closure drawing ``rng.randint(lo, hi)`` per call, with the same
    ``getrandbits`` calls (see ``FunctorOps.drawer``)."""
    draw = predicate_drawer(rng, hi - lo + 1, 1)
    return lambda: lo + draw()[0]


@lru_cache(maxsize=None)
def _pullback_index(m: int, n: int, f: tuple[int, ...], n_target: int) -> tuple[int, ...]:
    """For each target predicate q, the index of the source predicate q . f:
    Ff on a neighbourhood table reads the table at these positions."""
    src_index = predicate_index(m, n)
    return tuple(
        src_index[tuple(q[f[x]] for x in range(n))] for q in predicate_space(m, n_target)
    )


@lru_cache(maxsize=None)
def _pred_poset(alg: Algebra, n: int):
    """Predicates, a linear extension of their pointwise order, and the
    strictly-below lists.  Lexicographic enumeration is only a linear
    extension when the algebra is a chain, so topo-sort explicitly."""
    preds = predicate_space(alg.m, n)
    leq = alg.leq
    below = [
        [j for j in range(len(preds)) if j != i
         and all(leq(a, b) for a, b in zip(preds[j], preds[i]))]
        for i in range(len(preds))
    ]
    order = sorted(range(len(preds)), key=lambda i: len(below[i]))
    return preds, order, below


@lru_cache(maxsize=None)
def _pred_covers(alg: Algebra, n: int):
    """``_pred_poset``'s linear extension, and for each predicate the ones
    it covers: those strictly below it with none between."""
    _, order, below = _pred_poset(alg, n)
    covers = []
    for lower in below:
        under = set().union(*(below[j] for j in lower))
        covers.append([j for j in lower if j not in under])
    return order, covers


@lru_cache(maxsize=None)
def _monotone_steps(alg: Algebra, n: int):
    """How a monotone table is built: ``_pred_covers``'s linear extension
    as ``(i, covers of i)`` steps, and for each element a the elements above
    it, ascending, the values a table may take at a predicate whose strict
    lower bounds join to a."""
    order, covers = _pred_covers(alg, n)
    ups = tuple(tuple(v for v in range(alg.m) if alg._leq[a][v]) for a in range(alg.m))
    return tuple((i, tuple(covers[i])) for i in order), ups


def functor_ops(kind: Kind, n: int, alg: Algebra) -> FunctorOps:
    if n < 1:
        raise InvalidParameter("carrier size must be at least 1")
    return FunctorOps(kind, n, alg)


def enumerate_fvalues(
    kind: Kind, n: int, alg: Algebra, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator:
    """Stream every valid FValue of the kind at carrier size n exactly once."""
    return functor_ops(kind, n, alg).enumerate(budget)
