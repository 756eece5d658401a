"""Finite FLew-algebras: construction, validation, residuation, term clones.

Elements are dense integer indices into the operation tables; index 0 is the
lattice bottom and ``top`` names the unit of the monoid (which must coincide
with the lattice top).  Chains are stored in ascending order, so for the
built-in families top == m - 1.

The unary term clone tracks, for every reachable table, one witnessing term
over the variable x, the constants and the installed extras.  That term is
what the reduction engine splices into axioms that mention characteristic
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import ClosureBudgetExceeded, InvalidParameter, NotAQuantale

DEFAULT_CLOSURE_BUDGET = 10_000
# the largest n algebra_by_name builds for L<n>/G<n>: validate_flew is O(n^3)
MAX_BUILTIN_CHAIN = 32

Table = tuple[tuple[int, ...], ...]


def _freeze(table: Sequence[Sequence[int]]) -> Table:
    return tuple(tuple(int(v) for v in row) for row in table)


@dataclass(frozen=True)
class LawCheck:
    """Outcome of one law family: name, pass flag, first counterexample."""

    family: str
    law: str
    ok: bool
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class LawReport:
    checks: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[LawCheck]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.ok else f"FAIL witness={c.witness}"
            lines.append(f"{c.family}: {c.law}: {status}")
        return "\n".join(lines)


class Algebra:
    """A finite FLew-algebra given by its operation tables.

    ``extras`` maps names to unary tables (length m).  Truth constants are
    stored in ``constants`` (name -> element) and are nullary in formulas.
    """

    def __init__(
        self,
        m: int,
        meet: Sequence[Sequence[int]],
        join: Sequence[Sequence[int]],
        tensor: Sequence[Sequence[int]],
        impl: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        extras: Mapping[str, Sequence[int]] | None = None,
        constants: Mapping[str, int] | None = None,
        name: str | None = None,
    ):
        if m < 1:
            raise InvalidParameter("carrier size must be at least 1")
        self.m = m
        self.meet_table = _freeze(meet)
        self.join_table = _freeze(join)
        self.tensor_table = _freeze(tensor)
        self.impl_table = _freeze(impl)
        self.labels = tuple(labels) if labels else tuple(str(i) for i in range(m))
        if len(self.labels) != m:
            raise InvalidParameter("label count differs from carrier size")
        self.extras: dict[str, tuple[int, ...]] = {}
        for k, tab in (extras or {}).items():
            t = tuple(int(v) for v in tab)
            if len(t) != m or any(not (0 <= v < m) for v in t):
                raise InvalidParameter(f"extra {k!r} is not a unary table over the carrier")
            self.extras[k] = t
        self.constants: dict[str, int] = {}
        for k, v in (constants or {}).items():
            if not (0 <= v < m):
                raise InvalidParameter(f"constant {k!r} out of range")
            self.constants[k] = int(v)
        self.name = name
        self.bot = 0
        self.top = self._derive_top()
        # x <= y iff x /\ y == x
        self._leq = tuple(
            tuple(self.meet_table[x][y] == x for y in range(m)) for x in range(m)
        )
        self.linear = all(
            self._leq[x][y] or self._leq[y][x] for x in range(m) for y in range(m)
        )
        self._closure_cache: UnaryTermClone | None = None
        self._hash: int | None = None

    def _derive_top(self) -> int:
        for t in range(self.m):
            if all(self.meet_table[t][y] == y for y in range(self.m)):
                return t
        raise InvalidParameter("meet table has no top element")

    # -- basic operations ------------------------------------------------
    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def tensor(self, x: int, y: int) -> int:
        return self.tensor_table[x][y]

    def impl(self, x: int, y: int) -> int:
        return self.impl_table[x][y]

    def neg(self, x: int) -> int:
        return self.impl_table[x][0]

    def leq(self, x: int, y: int) -> bool:
        return self._leq[x][y]

    def bigjoin(self, values: Iterable[int]) -> int:
        out = 0
        for v in values:
            out = self.join_table[out][v]
        return out

    def bigmeet(self, values: Iterable[int]) -> int:
        out = self.top
        for v in values:
            out = self.meet_table[out][v]
        return out

    def elements(self) -> range:
        return range(self.m)

    def label(self, x: int) -> str:
        return self.labels[x]

    def __repr__(self) -> str:
        return f"Algebra({self.name or ''} m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.m == other.m
            and self.meet_table == other.meet_table
            and self.join_table == other.join_table
            and self.tensor_table == other.tensor_table
            and self.impl_table == other.impl_table
            and self.extras == other.extras
            and self.constants == other.constants
        )

    def __hash__(self) -> int:
        # computed once: caches keyed on the algebra hash it on every lookup
        if self._hash is None:
            self._hash = hash(
                (self.m, self.tensor_table, self.impl_table, tuple(sorted(self.extras)))
            )
        return self._hash

    def __getstate__(self) -> dict:
        # string hashes differ between processes: never carry one over
        return {**self.__dict__, "_hash": None}

    # -- named derived data ----------------------------------------------
    def unary_term_closure(self, budget: int = DEFAULT_CLOSURE_BUDGET) -> "UnaryTermClone":
        # a closure that finished is the whole clone, whatever its budget was;
        # over a smaller budget, rerun it so that it raises as a first run would
        if self._closure_cache is None or len(self._closure_cache) > budget:
            self._closure_cache = unary_term_closure(self, budget)
        return self._closure_cache


def sanitize_label(label: str) -> str:
    return label.replace("/", "_")


def chi_name(alg: Algebra, d: int) -> str:
    return "chi_" + sanitize_label(alg.labels[d])


def const_name(alg: Algebra, c: int) -> str:
    return "c_" + sanitize_label(alg.labels[c])


def _chain_labels(n: int) -> list[str]:
    return [str(Fraction(i, n)) for i in range(n + 1)]


def _table(m: int, f) -> list[list[int]]:
    return [[f(x, y) for y in range(m)] for x in range(m)]


def build_builtin(
    kind: str,
    n: int = 0,
    chi: Iterable[int] = (),
    constants: Iterable[int] = (),
) -> Algebra:
    """Construct B2, a Lukasiewicz chain L_n or a Goedel chain G_n.

    ``chi`` installs the characteristic functions of the named singletons as
    primitive unary tables; ``constants`` installs nullary truth constants.
    Chains carry n + 1 elements 0, 1/n, ..., 1 in ascending index order.
    """
    kind = kind.lower()
    if kind == "boolean":
        m = 2
        labels = ["0", "1"]
        tensor = _table(m, min)
        impl = _table(m, lambda x, y: 1 if x <= y else y)
        name = "B2"
    elif kind in ("lukasiewicz", "goedel"):
        if n < 1:
            raise InvalidParameter(f"{kind} chain needs n >= 1, got {n}")
        m = n + 1
        labels = _chain_labels(n)
        if kind == "lukasiewicz":
            # on indices i/n: i (*) j = max(0, i+j-n), i -> j = min(n, n-i+j)
            tensor = _table(m, lambda x, y: max(0, x + y - n))
            impl = _table(m, lambda x, y: min(n, n - x + y))
            name = f"L{n}"
        else:
            tensor = _table(m, min)
            impl = _table(m, lambda x, y: n if x <= y else y)
            name = f"G{n}"
    else:
        raise InvalidParameter(f"unknown builtin kind {kind!r}")
    meet = _table(m, min)
    join = _table(m, max)
    extras = {}
    for d in chi:
        if not (0 <= d < m):
            raise InvalidParameter(f"chi index {d} outside carrier")
        extras["chi_" + sanitize_label(labels[d])] = tuple(
            m - 1 if x == d else 0 for x in range(m)
        )
    consts = {}
    for c in constants:
        if not (0 <= c < m):
            raise InvalidParameter(f"constant index {c} outside carrier")
        consts["c_" + sanitize_label(labels[c])] = c
    alg = Algebra(m, meet, join, tensor, impl, labels, extras, consts, name=name)
    report = validate_flew(alg)
    if not report.ok:
        raise InvalidParameter(f"builtin {name} failed validation: {report.failures()}")
    return alg


def algebra_by_name(name: str) -> Algebra:
    """Resolve the builtin names B2, L<n>, G<n> (1 <= n <= MAX_BUILTIN_CHAIN).

    Each builtin is built and validated once per process and then shared:
    every call returns the same instance, which caches its unary term clone.
    Callers must not mutate it.
    """
    if not is_builtin_name(name):
        raise InvalidParameter(f"unknown builtin algebra name {name!r}")
    if name == "B2":
        return _shared_builtin("boolean", 0)
    try:
        n = int(name[1:])
    except ValueError:  # more digits than int() reads from text
        n = MAX_BUILTIN_CHAIN + 1
    if n > MAX_BUILTIN_CHAIN:
        raise InvalidParameter(
            f"builtin algebra {name!r} is too large: n is at most {MAX_BUILTIN_CHAIN}"
        )
    return _shared_builtin("lukasiewicz" if name[0] == "L" else "goedel", n)


def is_builtin_name(name: str) -> bool:
    """Whether ``algebra_by_name`` reads ``name`` as a builtin: B2, L<n> or
    G<n>, whatever the size n."""
    return name == "B2" or (name[:1] in ("L", "G") and name[1:].isdecimal())


@cache
def _shared_builtin(kind: str, n: int) -> Algebra:
    return build_builtin(kind, n)


def derive_residuum(
    m: int, join: Sequence[Sequence[int]], tensor: Sequence[Sequence[int]]
) -> Table:
    """Derive x -> y as the join of all z with x (*) z <= y.

    Raises NotAQuantale (with a witness triple) when the result fails the
    residuation law, i.e. when the tensor does not distribute over the
    derived joins.
    """
    join_t = _freeze(join)
    tensor_t = _freeze(tensor)

    def leq(x: int, y: int) -> bool:
        return join_t[x][y] == y

    impl = []
    for x in range(m):
        row = []
        for y in range(m):
            acc = 0
            for z in range(m):
                if leq(tensor_t[x][z], y):
                    acc = join_t[acc][z]
            row.append(acc)
        impl.append(tuple(row))
    impl_t = tuple(impl)
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if leq(tensor_t[x][y], z) != leq(x, impl_t[y][z]):
                    raise NotAQuantale(
                        "derived implication fails residuation", witness=(x, y, z)
                    )
    return impl_t


def validate_flew(alg: Algebra) -> LawReport:
    """Exhaustive O(m^3) law check; failures are data, not exceptions."""
    m = alg.m
    mt, jt, tt, it = alg.meet_table, alg.join_table, alg.tensor_table, alg.impl_table
    checks: list[LawCheck] = []

    def scan(family: str, law: str, pred, arity: int) -> None:
        witness = None
        if arity == 1:
            gen = ((x,) for x in range(m))
        elif arity == 2:
            gen = ((x, y) for x in range(m) for y in range(m))
        else:
            gen = ((x, y, z) for x in range(m) for y in range(m) for z in range(m))
        for args in gen:
            if not pred(*args):
                witness = args
                break
        checks.append(LawCheck(family, law, witness is None, witness))

    leq = alg.leq
    scan("lattice", "meet idempotent", lambda x: mt[x][x] == x, 1)
    scan("lattice", "join idempotent", lambda x: jt[x][x] == x, 1)
    scan("lattice", "meet commutative", lambda x, y: mt[x][y] == mt[y][x], 2)
    scan("lattice", "join commutative", lambda x, y: jt[x][y] == jt[y][x], 2)
    scan("lattice", "meet associative", lambda x, y, z: mt[mt[x][y]][z] == mt[x][mt[y][z]], 3)
    scan("lattice", "join associative", lambda x, y, z: jt[jt[x][y]][z] == jt[x][jt[y][z]], 3)
    scan("lattice", "absorption /\\", lambda x, y: mt[x][jt[x][y]] == x, 2)
    scan("lattice", "absorption \\/", lambda x, y: jt[x][mt[x][y]] == x, 2)
    scan("lattice", "bottom is least", lambda x: jt[0][x] == x, 1)
    scan("lattice", "top is greatest", lambda x: mt[alg.top][x] == x, 1)
    scan("monoid", "tensor commutative", lambda x, y: tt[x][y] == tt[y][x], 2)
    scan("monoid", "tensor associative", lambda x, y, z: tt[tt[x][y]][z] == tt[x][tt[y][z]], 3)
    scan("monoid", "unit", lambda x: tt[alg.top][x] == x, 1)
    scan(
        "residuation",
        "x(*)y <= z iff x <= y->z",
        lambda x, y, z: leq(tt[x][y], z) == leq(x, it[y][z]),
        3,
    )
    scan("integrality", "monoid unit is lattice top", lambda x: leq(x, alg.top), 1)
    if alg.linear:
        scan("lattice", "order is total", lambda x, y: leq(x, y) or leq(y, x), 2)
    return LawReport(tuple(checks))


# -- unary term clone ---------------------------------------------------

# A term is a nested tuple: ("x",), ("const", name, value), ("app", op, args...)
Term = tuple


def term_to_text(term: Term, alg: Algebra, var: str = "x") -> str:
    if term[0] == "x":
        return var
    if term[0] == "const":
        return term[1]
    op = term[1]
    args = [term_to_text(t, alg, var) for t in term[2:]]
    if op in ("/\\", "\\/", "*", "->"):
        return f"({args[0]} {op} {args[1]})"
    return f"{op}({', '.join(args)})"


@dataclass
class UnaryTermClone:
    """All unary term functions of the algebra, each with a witnessing term."""

    alg: Algebra
    functions: dict[tuple[int, ...], Term]

    def __contains__(self, table: tuple[int, ...]) -> bool:
        return tuple(table) in self.functions

    def term_for(self, table: tuple[int, ...]) -> Term | None:
        return self.functions.get(tuple(table))

    def __len__(self) -> int:
        return len(self.functions)


def unary_term_closure(alg: Algebra, budget: int = DEFAULT_CLOSURE_BUDGET) -> UnaryTermClone:
    """Close {x, 0, 1} + extras under the pointwise signature operations.

    Terminates because there are at most m^m unary tables; raises
    ClosureBudgetExceeded when the configured ceiling is hit first.
    """
    m = alg.m
    found: dict[tuple[int, ...], Term] = {}

    def add(table: tuple[int, ...], term: Term, queue: list) -> None:
        if table not in found:
            if len(found) >= budget:
                raise ClosureBudgetExceeded(
                    f"unary closure exceeded budget of {budget} functions"
                )
            found[table] = term
            queue.append(table)

    queue: list[tuple[int, ...]] = []
    identity = tuple(range(m))
    add(identity, ("x",), queue)
    add(tuple(0 for _ in range(m)), ("const", "0", 0), queue)
    add(tuple(alg.top for _ in range(m)), ("const", "1", alg.top), queue)
    for cname, cval in alg.constants.items():
        add(tuple(cval for _ in range(m)), ("const", cname, cval), queue)
    for ename, etab in alg.extras.items():
        add(etab, ("app", ename, ("x",)), queue)

    binops = {
        "/\\": alg.meet_table,
        "\\/": alg.join_table,
        "*": alg.tensor_table,
        "->": alg.impl_table,
    }
    idx = 0
    while idx < len(queue):
        f = queue[idx]
        idx += 1
        fterm = found[f]
        for ename, etab in alg.extras.items():
            add(tuple(etab[v] for v in f), ("app", ename, fterm), queue)
        snapshot = list(found.items())
        for g, gterm in snapshot:
            for op, table in binops.items():
                add(tuple(table[a][b] for a, b in zip(f, g)), ("app", op, fterm, gterm), queue)
                add(tuple(table[a][b] for a, b in zip(g, f)), ("app", op, gterm, fterm), queue)
    return UnaryTermClone(alg, found)


def chi_table(alg: Algebra, subset: Iterable[int]) -> tuple[int, ...]:
    members = set(subset)
    for d in members:
        if not (0 <= d < alg.m):
            raise InvalidParameter(f"subset member {d} outside carrier")
    return tuple(alg.top if x in members else 0 for x in range(alg.m))


def is_chi_definable(
    alg: Algebra, subset: Iterable[int], budget: int = DEFAULT_CLOSURE_BUDGET
) -> bool:
    """Is the characteristic function of ``subset`` a unary term function?"""
    return chi_table(alg, subset) in alg.unary_term_closure(budget)


def chi_term(
    alg: Algebra, subset: Iterable[int], budget: int = DEFAULT_CLOSURE_BUDGET
) -> Term | None:
    """A witnessing term for the characteristic function, if definable."""
    return alg.unary_term_closure(budget).term_for(chi_table(alg, subset))


def is_semiprimal(alg: Algebra, budget: int = DEFAULT_CLOSURE_BUDGET) -> bool:
    """True iff chi_P is term-definable for every subset P of the carrier."""
    clone = alg.unary_term_closure(budget)
    m = alg.m
    for mask in range(1 << m):
        subset = [d for d in range(m) if mask >> d & 1]
        if chi_table(alg, subset) not in clone:
            return False
    return True
