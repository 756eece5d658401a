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
from typing import Callable, Iterator, Sequence

from .algebra import Algebra
from .errors import BudgetExceeded, InvalidParameter

DEFAULT_ENUM_BUDGET = 1_000_000

# a drawer's table, and a sampled sweep's interned coalgebras, predicates
# and operand tuples with their table entries, hold at most this many
# entries, then start afresh: sampled things seldom recur, so keeping them
# all would only grow memory
DRAW_TABLE_ENTRIES = 1 << 14


class _Table(dict):
    """A dict that fills a missing key with ``fill(key)`` on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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

        Every drawer but the powerset's keeps one table of its own, filled
        as it draws, and returns *shared* values from it: a value drawn
        twice while it is in the table is the same object, so later dict
        lookups on it hit on identity.  A row, predicate or double-powerset
        family is looked up by the integer its draws spell; a monotone
        table follows a decision trie over the linear extension
        (``_monotone_drawer``), one indexed hop per predicate.  Every table
        starts afresh before it would hold more than ``DRAW_TABLE_ENTRIES``
        entries; the closure's ``held()`` counts them.

        Sampled sweeps draw whole coalgebras through ``coalgebra_drawer``,
        which makes the calls of n calls of this closure in one; they draw
        single values (a safety sweep's unforced target states, a sampled
        separation's pairs) here.
        """
        kind, n, alg = self.kind, self.n, self.alg
        if kind is Kind.POWERSET:
            return int_drawer(rng, 0, (1 << n) - 1)
        if kind is Kind.APOWERSET:
            return predicate_drawer(rng, alg.m, n)
        if kind is Kind.A_NEIGHBOURHOOD:
            return predicate_drawer(rng, alg.m, alg.m**n)
        if kind is Kind.DOUBLE_POWERSET:
            return _family_drawer(rng, n)
        return _monotone_drawer(rng, alg, n)

    def coalgebra_drawer(self, rng: random.Random) -> Callable[[], int]:
        """A closure drawing one coalgebra of n states per call, as n calls
        of ``drawer(rng)`` draw its states in order: it makes the same
        ``getrandbits`` and ``random`` calls and returns the integer they
        spell, state 0's digit first.  ``draw.coalgebra(code)`` gives the
        coalgebra of a code as a shared tuple of shared FValues, equal to
        the n values those calls return.

        Each state is one digit in base B.  A powerset value is its bitmask
        (B = 2**n); a coalgebra's n bitmasks are drawn as n base-2**n
        digits, which makes the calls of n draws below 2**n.  A row or a
        neighbourhood table is its w entries in predicate order as base-m
        digits (B = m**w), so an A-powerset or A-neighbourhood coalgebra is
        n·w digits of one loop; a monotone table is drawn on
        ``_monotone_drawer``'s trie, whose leaves keep that number, and its
        coalgebra keeps the trie's tables.  A double-powerset family is the
        bitmask of its masks (B = 2**2**n), drawn as n·2**n ``random()``
        bits.  The coalgebras and the states decoded from their digits are
        kept in a table each, which starts afresh before it would hold
        more than ``DRAW_TABLE_ENTRIES`` entries; ``held()`` gives the
        larger count.
        """
        kind, n, m = self.kind, self.n, self.alg.m
        states, tables, drawn = range(n), [None] * n, [None]  # a monotone draw's tables and code
        if kind is Kind.DOUBLE_POWERSET:
            width = 1 << n
            base, unit, masks = 1 << width, rng.random, range(width)
            flat = [1 << (n - 1 - x) * width + mask for x in states for mask in masks]

            def draw() -> int:
                code = 0
                for bit in flat:
                    if unit() < 0.5:
                        code |= bit
                return code

            def value(digit: int) -> frozenset:
                return frozenset(mask for mask in masks if digit >> mask & 1)

        elif kind is Kind.MONOTONE_NEIGHBOURHOOD:
            width = m**n
            base, leaf, value = m**width, _monotone_drawer(rng, self.alg, n).leaf, _digits(m, width)

            def draw() -> int:
                code = 0
                for x in states:
                    tables[x], digit = leaf()
                    code = code * base + digit
                drawn[0] = code
                return code

        else:
            if kind is Kind.POWERSET:
                m, width, value = 1 << n, 1, int
            else:
                width = n if kind is Kind.APOWERSET else m**n
                value = _digits(m, width)
            base, bits, k, places = m**width, rng.getrandbits, m.bit_length(), range(n * width)

            def draw() -> int:
                code = 0
                for _ in places:
                    r = bits(k)
                    while r >= m:
                        r = bits(k)
                    code = code * m + r
                return code

        coalgs, values = {}, _Table(value)
        state, powers = values.__getitem__, [base**x for x in reversed(states)]

        def coalgebra(code: int) -> tuple:
            got = coalgs.get(code)
            if got is None:
                if len(coalgs) >= DRAW_TABLE_ENTRIES:
                    coalgs.clear()
                if code == drawn[0]:  # a monotone draw's tables: no digit to decode
                    got = tuple(tables)
                else:
                    if len(values) > DRAW_TABLE_ENTRIES - n:
                        values.clear()
                    got = tuple([state(code // p % base) for p in powers])
                coalgs[code] = got
            return got

        draw.coalgebra = coalgebra
        draw.held = lambda: max(len(coalgs), len(values))
        return draw


def _digits(m: int, width: int) -> Callable[[int], tuple[int, ...]]:
    """The tuple of ``width`` base-m digits of a number, most significant
    first."""
    places = range(width - 1, -1, -1)

    def digits(code: int) -> tuple[int, ...]:
        out = [0] * width
        for i in places:
            code, out[i] = divmod(code, m)
        return tuple(out)

    return digits


def predicate_drawer(rng: random.Random, m: int, n: int) -> Callable[[], tuple[int, ...]]:
    """A closure drawing ``tuple(rng.randrange(m) for _ in range(n))`` per
    call, with the same ``getrandbits`` calls, as a shared value keyed by
    the draws' base-m number (see ``FunctorOps.drawer``)."""
    bits, k, places, memo, digits = rng.getrandbits, m.bit_length(), range(n), {}, _digits(m, n)

    def draw() -> tuple[int, ...]:
        code = 0
        for _ in places:
            r = bits(k)
            while r >= m:
                r = bits(k)
            code = code * m + r
        got = memo.get(code)
        if got is None:
            if len(memo) >= DRAW_TABLE_ENTRIES:
                memo.clear()
            memo[code] = got = digits(code)
        return got

    draw.held = memo.__len__
    return draw


def int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """A closure drawing ``rng.randint(lo, hi)`` per call, with the same
    ``getrandbits`` calls (see ``FunctorOps.drawer``)."""
    bits, size = rng.getrandbits, hi - lo + 1
    k = size.bit_length()

    def draw() -> int:
        r = bits(k)
        while r >= size:
            r = bits(k)
        return lo + r

    return draw


def _family_drawer(rng: random.Random, n: int) -> Callable[[], frozenset]:
    """A closure drawing ``frozenset(mask for mask in range(2**n) if
    rng.random() < 0.5)`` per call, as a shared value keyed by the bitmask
    of the drawn masks (see ``FunctorOps.drawer``)."""
    unit, masks, memo = rng.random, range(1 << n), {}
    bits = [1 << mask for mask in masks]

    def draw() -> frozenset:
        code = 0
        for bit in bits:
            if unit() < 0.5:
                code |= bit
        got = memo.get(code)
        if got is None:
            if len(memo) >= DRAW_TABLE_ENTRIES:
                memo.clear()
            got = memo[code] = frozenset(mask for mask in masks if code >> mask & 1)
        return got

    draw.held = memo.__len__
    return draw


def _monotone_drawer(rng: random.Random, alg: Algebra, n: int) -> Callable[[], tuple[int, ...]]:
    """A closure drawing a monotone table as ``FunctorOps.drawer`` says,
    from a decision trie that follows ``_monotone_steps``.

    A node at depth d stands for the draws at steps 0..d-1 and is a tuple
    ``(size, k, kids)``: the table's entry at step d is ``up[r]`` for the r
    drawn below ``size`` with k bits.  ``kids`` lists ``size`` children
    (nodes at depth d + 1, or tables at the last step), then ``up`` and a
    *witness*: a table agreeing with every table below the node at steps
    0..d-1.  A draw hops from the root while it finds a child.  Where it
    finds none, it copies the witness of the node where it stopped and
    completes the table by joining covers, as an untabled draw does,
    making one node per step on the way down, each witnessed by the table
    just drawn.  So a miss costs an untabled draw's joins, one list copy
    and a node per step below the miss.  A leaf is the table with its
    entries' base-m number in predicate order, which ``draw.leaf()`` returns
    for ``FunctorOps.coalgebra_drawer``.  ``held`` counts nodes and
    leaves."""
    steps, ups = _monotone_steps(alg, n)
    jt, bits, m = alg.join_table, rng.getrandbits, alg.m
    widths = [(len(up), len(up).bit_length()) for up in ups]
    last = len(steps) - 1
    inner = range(last)
    size, k = widths[0]
    root = size, k, [None] * size + [ups[0], (0,) * len(steps)]
    held = 0

    def grow(d: int, kids: list, r: int) -> tuple[tuple[int, ...], int]:
        # the draw has drawn r at the node of kids, depth d, and found no child
        nonlocal held
        table = list(kids[-1])
        table[steps[d][0]] = kids[-2][r]
        if held > DRAW_TABLE_ENTRIES - (last - d + 1):
            # no room for a node per step below d and a table: start afresh,
            # and hang this draw's nodes on a list the trie does not hold
            root[2][: root[0]] = [None] * root[0]
            held, kids = 0, [None] * (r + 1)
        else:
            held += last - d + 1
        for i, covers in steps[d + 1 :]:
            # the table is monotone on the predicates drawn so far, so the
            # covers of i join to what everything below i joins to
            lower = 0
            for j in covers:
                lower = jt[lower][table[j]]
            size, k = widths[lower]
            node = kids[r] = size, k, [None] * size + [ups[lower], table]
            kids = node[2]
            r = bits(k)
            while r >= size:
                r = bits(k)
            table[i] = ups[lower][r]
        code = 0
        for v in table:
            code = code * m + v
        got = kids[r] = tuple(table), code
        return got

    def leaf() -> tuple[tuple[int, ...], int]:
        node = root
        for d in inner:
            size, k, kids = node
            r = bits(k)
            while r >= size:
                r = bits(k)
            node = kids[r]
            if node is None:
                return grow(d, kids, r)
        size, k, kids = node
        r = bits(k)
        while r >= size:
            r = bits(k)
        got = kids[r]
        return grow(last, kids, r) if got is None else got

    def draw() -> tuple[int, ...]:
        return leaf()[0]

    draw.leaf, draw.held = leaf, lambda: held
    return draw


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
