"""Predicate liftings, models and the formula evaluator.

A model fixes a carrier size, a logic configuration (functor kind, truth and
structure algebras, the lifting/operation/test catalogue), coalgebras for the
atomic actions and a propositional valuation.  Formulas, actions and rule
templates have one evaluator, the Plan: they compile once into a flat list
of steps, one step per distinct subterm, which run on predicate and
coalgebra ids.  Both sides of a reduction rule are formulas over variables
and action slots (the template, and the lifting applied to the operation
over slots 1..arity or to the test of variable 1); a formula is the same
kind of object, its propositions playing the variables and its atomic
actions the slots.  So the rule-soundness and entailment sweeps share the
plan: an exhaustive sweep runs its slot loop, ``Plan.sweep``, a sampled one
runs batches of drawn cases, ``Plan.run_cases``, and an EvalSession is a
plan over one model, its atoms as the slots and its valuation rows as the
variables, run as a batch of one case.  Connectives resolve through
``connective``.

Two algebras show up because the threshold logic evaluates formulas in the
two-element Boolean algebra over structures labelled in a larger chain; in
every other configuration they coincide.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product, repeat
from operator import getitem, itemgetter
from typing import Mapping, Sequence

from .actions import (
    COMPOSITION_VARIANTS,
    POINTWISE_VARIANTS,
    Coalgebra,
    OperationSpec,
    TestSpec,
    apply_op,
    apply_test,
    composition_map,
    pointwise_step,
)
from .algebra import Algebra
from .errors import (
    ArityMismatch,
    IncompatibleVariant,
    InvalidParameter,
    UnknownAtom,
    UnknownIdentifier,
)
from .functors import (
    Kind,
    NEIGHBOURHOOD_KINDS,
    FunctorOps,
    functor_ops,
    predicate_index,
    predicate_space,
)
from .syntax import (
    Atomic,
    Conn,
    Formula,
    Modal,
    Op,
    Prop,
    Signature,
    Test,
    Var,
)

Predicate = tuple

LIFTING_VARIANTS = {
    "box-crisp": (Kind.POWERSET,),
    "diamond-crisp": (Kind.POWERSET,),
    "box-labelled": (Kind.APOWERSET,),
    "diamond-labelled": (Kind.APOWERSET,),
    "threshold": (Kind.APOWERSET,),
    "eval": NEIGHBOURHOOD_KINDS,
    "instantial": (Kind.DOUBLE_POWERSET,),
}


@dataclass(frozen=True)
class LiftingSpec:
    """One modality: a named k-ary predicate lifting variant.

    ``param`` is the threshold element for the threshold variant and unused
    otherwise; instantial arity is k+1 with the containment argument last.
    """

    id: str
    arity: int
    variant: str
    param: int = 0

    def check_kind(self, kind: Kind) -> None:
        if kind not in LIFTING_VARIANTS.get(self.variant, ()):
            raise IncompatibleVariant(
                f"lifting variant {self.variant!r} does not apply to {kind.value}"
            )


@dataclass(frozen=True)
class LogicConfig:
    """A fixed choice of functor, algebras and modal/dynamic catalogue."""

    name: str
    kind: Kind
    truth: Algebra
    struct: Algebra
    liftings: Mapping[str, LiftingSpec]
    ops: Mapping[str, OperationSpec]
    tests: Mapping[str, TestSpec]
    signature: Signature

    def lifting(self, name: str) -> LiftingSpec:
        try:
            return self.liftings[name]
        except KeyError:
            raise UnknownIdentifier(f"unknown lifting {name!r}") from None

    def op(self, name: str) -> OperationSpec:
        try:
            return self.ops[name]
        except KeyError:
            raise UnknownIdentifier(f"unknown operation {name!r}") from None

    def test(self, name: str) -> TestSpec:
        try:
            return self.tests[name]
        except KeyError:
            raise UnknownIdentifier(f"unknown test {name!r}") from None

    def fops(self, n: int) -> FunctorOps:
        return functor_ops(self.kind, n, self.struct)


def crisp_mask(truth: Algebra, pred: Sequence[int]) -> int:
    """Bitmask of the states where a two-valued predicate is true."""
    mask = 0
    for x, v in enumerate(pred):
        if v == truth.top:
            mask |= 1 << x
    return mask


def _crisp_fold(start: int, table):
    """Fold ``table`` over sigma on the successor set of a powerset value."""

    def kernel(preds, values, n):
        sigma = preds[0]
        out = []
        for value in values:
            acc = start
            for x in range(n):
                if value >> x & 1:
                    acc = table[acc][sigma[x]]
            out.append(acc)
        return tuple(out)

    return kernel


def _labelled_fold(start: int, outer, inner):
    """Fold ``outer`` over inner(weight, sigma) along a labelled row."""

    def kernel(preds, values, n):
        sigma = preds[0]
        out = []
        for value in values:
            acc = start
            for x in range(n):
                acc = outer[acc][inner[value[x]][sigma[x]]]
            out.append(acc)
        return tuple(out)

    return kernel


def lifting_kernel(spec: LiftingSpec, config: LogicConfig):
    """The closed formula of ``spec``'s variant as a function
    ``(preds, values, n) -> row``: one lifted truth value per FValue in
    ``values``, all at carrier size n.  The kind is checked here, once."""
    spec.check_kind(config.kind)
    truth, struct = config.truth, config.struct
    variant = spec.variant
    if variant == "box-crisp":
        return _crisp_fold(truth.top, truth.meet_table)
    if variant == "diamond-crisp":
        return _crisp_fold(0, truth.join_table)
    if variant == "box-labelled":
        return _labelled_fold(struct.top, struct.meet_table, struct.impl_table)
    if variant == "diamond-labelled":
        return _labelled_fold(0, struct.join_table, struct.tensor_table)
    if variant == "threshold":
        top, jt, leq, param = truth.top, struct.join_table, struct.leq, spec.param

        def threshold(preds, values, n):
            mask = crisp_mask(truth, preds[0])
            out = []
            for value in values:
                acc = 0
                for x in range(n):
                    if mask >> x & 1:
                        acc = jt[acc][value[x]]
                out.append(top if leq(param, acc) else 0)
            return tuple(out)

        return threshold
    if variant == "eval":
        m = struct.m

        def evaluation(preds, values, n):
            j = predicate_index(m, n)[tuple(preds[0])]
            return tuple(value[j] for value in values)

        return evaluation
    if variant == "instantial":
        top = truth.top

        def instantial(preds, values, n):
            smask = crisp_mask(truth, preds[-1])
            imasks = [crisp_mask(truth, p) for p in preds[:-1]]
            out = []
            for value in values:
                hit = 0
                for z in value:
                    if not z & ~smask and all(z & im for im in imasks):
                        hit = top
                        break
                out.append(hit)
            return tuple(out)

        return instantial
    raise IncompatibleVariant(f"unknown lifting variant {variant!r}")


def apply_lifting(
    spec: LiftingSpec,
    preds: Sequence[Predicate],
    value,
    config: LogicConfig,
    n: int,
) -> int:
    """lambda_X(preds)(value), by the closed formula of the variant."""
    kernel = lifting_kernel(spec, config)
    if len(preds) != spec.arity:
        raise ArityMismatch(
            f"lifting {spec.id!r} expects {spec.arity} predicate(s), got {len(preds)}"
        )
    return kernel(preds, (value,), n)[0]


class Model:
    """Finite dynamic model: atomic coalgebras plus a propositional valuation."""

    def __init__(
        self,
        n: int,
        config: LogicConfig,
        atoms: Mapping[str, Sequence],
        valuation: Mapping[str, Sequence[int]],
    ):
        self.n = n
        self.config = config
        self.atoms = {k: tuple(v) for k, v in atoms.items()}
        self.valuation = {k: tuple(v) for k, v in valuation.items()}
        self.fops = config.fops(n)
        self._validate()

    def _validate(self) -> None:
        for name, gamma in self.atoms.items():
            if len(gamma) != self.n:
                raise InvalidParameter(
                    f"atom {name!r} has {len(gamma)} states, model has {self.n}"
                )
            for value in gamma:
                if not self.fops.is_valid(value):
                    raise InvalidParameter(
                        f"atom {name!r} carries an invalid {self.config.kind.value} value"
                    )
        for name, row in self.valuation.items():
            if len(row) != self.n:
                raise InvalidParameter(f"valuation of {name!r} has wrong length")
            if any(not (0 <= v < self.config.truth.m) for v in row):
                raise InvalidParameter(f"valuation of {name!r} is out of range")

    def session(self) -> "EvalSession":
        return EvalSession(self)


BINARY_TABLES = {
    "/\\": "meet_table",
    "\\/": "join_table",
    "*": "tensor_table",
    "->": "impl_table",
}


def connective(truth: Algebra, sym: str, nargs: int) -> tuple[int, object]:
    """How ``truth`` interprets connective ``sym`` applied to ``nargs``
    arguments: ``(0, element)`` for a constant (its arguments are ignored),
    ``(1, row)`` for an extra, ``(2, m x m table)`` for a binary connective."""
    if sym in ("0", "1") or sym in truth.constants:
        return 0, 0 if sym == "0" else truth.top if sym == "1" else truth.constants[sym]
    if sym in BINARY_TABLES:
        arity, table = 2, getattr(truth, BINARY_TABLES[sym])
    elif sym in truth.extras:
        arity, table = 1, truth.extras[sym]
    else:
        raise UnknownIdentifier(f"connective {sym!r} is not interpreted")
    if nargs != arity:
        raise ArityMismatch(
            f"connective {sym!r} expects {arity} argument(s), got {nargs}"
        )
    return arity, table


def assignments(P: int, k: int) -> list[list[int]]:
    """The ids of k variables over all P**k assignments, in the order of
    ``product(range(P), repeat=k)``: one list per variable."""
    return [[key // P ** (k - 1 - i) % P for key in range(P**k)] for i in range(k)]


def _interner(index: dict, values: list):
    """A function giving a value's index in ``values``, appending the value
    on first sight; ``index`` maps the values seen so far to their indices."""

    def intern(value) -> int:
        got = index.get(value)
        if got is None:
            got = index[value] = len(values)
            values.append(value)
        return got

    return intern


# a sweep's lists that read slot 1 hold at most this many ids (S per
# slot-1 cid), so they do not grow with the number of coalgebras
SWEEP_IDS = 1 << 16

# a composition whose right operand reads slot 1 and its left operand does
# not keeps at most this many right operands' maps
KEPT_MAPS = 256


class Plan:
    """Formulas and actions compiled for one configuration and carrier size
    and evaluated on small integers.

    A predicate is its id, its index in ``preds``; a coalgebra is its cid,
    its index in ``coalgs``.  Both are interned on first sight (``pid``,
    ``intern``), so a plan over one large model meets only the predicates
    that model yields; an exhaustive sweep first interns every coalgebra
    and the whole predicate space in canonical order
    (``intern_coalgebras``, ``intern_space``), so a cid's base-V digits
    are its states' vids, V the number of FValues.  A template's
    leaves are variables and its modalities hold action slots; a formula
    compiles the same way, its propositions playing the variables and its
    atomic actions the slots.  Each distinct subterm becomes one step.

    A plan that is not ``canonical`` (a sampled sweep's, or a session's)
    runs batches of S drawn cases (``run_cases``): every slot, like every
    variable, holds one id per position, position ``i`` being case ``i``,
    so every action step yields one cid per position and each step runs
    once per batch.  What follows is the layout of a canonical plan.

    Steps fall into groups by what they read: 0 the variables only, 1 also
    a slot other than the first, 2 the first slot.  Slot 1 is a block
    list: every cid the sweep gives it at once (``range(C)``).  A formula
    step of group 0 or 1 maps the sigma-list (variable assignments, S of
    them, in the sweep's canonical order) to the list of its S ids; one of
    group 2 yields B*S ids for B blocks, block-major, so position ``i`` is
    block ``i // S`` at sigma-position ``i % S``.  An S-long list read
    beside a B*S-long one is repeated once per block by a tile step.  An
    action step yields one cid, or one cid per block if it reads slot 1; a
    test yields one cid per position (S or B*S of them), as does an
    operation with such an operand, whose block operands are spread over
    their S positions.  A modality over a block list reads each block's
    lifting row at the same S keys, through one ``itemgetter`` over those
    keys; where the keys read slot 1 too, the block list is spread and
    read position by position.

    Connectives, liftings, operations and tests read id tables whose
    entries are computed on first use: an extra connective keys on its
    argument id, a binary one on both, a lifting on the cid of its action
    and its argument id (a tuple of ids for a k-ary lifting), a test on its
    argument's id.  A lifting entry is assembled from the lifted truth
    values of the coalgebra's FValues, each computed once by the lifting's
    kernel and kept per FValue, since sampled coalgebras seldom recur but
    their FValues do.  An operation keeps its outputs by operand cids only
    where those are few (one operand, or a cid list per position); a pair
    of slots, of which there are C**2, is assembled state by state from
    one-step tables.  A composition goes through the map of its right
    operand, memoised per FValue; it keeps every right operand's map, up to
    ``KEPT_MAPS``, on a plan that is not canonical or where the right
    operand reads slot 1 and the left does not, and else the last one.  A
    binary pointwise operation goes through ``pointwise_step`` memoised per
    pair of FValues.  On a canonically interned plan, a binary pointwise
    operation or composition over one listed operand and one fixed cid,
    unless it composes with the listed operand on the right, skips all
    that (``_tabled``): its output at listed cid c is the sum over states x
    of V**(n-1-x) times a row of output vids read at c's x-th digit, rows
    built once per fixed cid, and it reads these sums off one table per
    fixed cid.  ``forget`` drops every id and table and the canonical
    order, so a long sampled sweep can bound its memory.
    ``sweep`` runs group 1 once per assignment of the outer slots and
    group 2 once per block list, ``run_cases`` every step once per batch,
    and ``case`` decodes a position of their lists; ``run_new`` runs each
    step compiled since, for an EvalSession.

    ``slots`` and ``variables`` are how many a template has, or the names
    of a formula's atomic actions, slot 1 first, and of its propositions,
    in the order of the sweep's variable lists.
    """

    def __init__(
        self,
        config: LogicConfig,
        n: int,
        slots: int | Sequence,
        variables: int | Sequence,
        canonical: bool = False,
    ):
        if isinstance(slots, int):
            slots, variables = range(1, slots + 1), range(1, variables + 1)
        self.config = config
        self.n = n
        self.canonical = canonical
        self.fops = config.fops(n)
        self.preds: list = []  # id -> predicate
        self.coalgs: list = []  # cid -> coalgebra
        self._slots = {key: s for s, key in enumerate(slots)}  # slot or atom -> slot - 1
        self._vars = {key: v for v, key in enumerate(variables)}  # variable or prop -> variable
        # slot - 1 -> its cid, or its cids: slot 1's block list when
        # canonical, else one cid per position on every slot
        self.cids: list = [0] * len(self._slots)
        self.vals: list = []  # step position -> ids
        self.groups: list[list] = [[], [], []]  # (position, step), run order
        self._ran = [0, 0, 0]  # steps of each group that run_new has run
        self._inputs: list = [[], 1]  # the variables' sigma-lists and their length
        self._pos: dict = {}  # node -> (position, group)
        self._each: set = set()  # positions of actions with one cid per position
        self._lifts: dict = {}  # lifting id -> (arity, {cid: {key: id}}, fill)
        self._tables: list = []  # everything forget empties
        self._pred_ids = self._keep({})
        self._masks = self._keep([])  # id -> its states at top, see ``masks``
        # FValue -> vid and the FValues, once interned in canonical order
        self._canon = self._keep([])
        # steps hold no reference to the plan, so a finished sweep's plan is
        # freed at once rather than by the cycle collector
        self.pid = _interner(self._pred_ids, self.preds)
        self.intern = _interner(self._keep({}), self.coalgs)

    def intern_space(self) -> int:
        """Intern every predicate in canonical order, before any other is
        interned, so that an id is an index into ``predicate_space(m, n)``;
        returns how many there are."""
        for pred in predicate_space(self.config.truth.m, self.n):
            self.pid(pred)
        return len(self.preds)

    def intern_coalgebras(self, values: Sequence) -> int:
        """Intern every coalgebra over the FValues ``values`` in canonical
        order, before any other is interned: cid i is the i-th of
        ``product(values, repeat=n)``, so its base-V digits, state 0 the
        most significant, are its states' vids (indices in ``values``).
        Returns how many there are."""
        for g in product(values, repeat=self.n):
            self.intern(g)
        self._canon[:] = {value: u for u, value in enumerate(values)}, values
        return len(self.coalgs)

    def forget(self, bound: int) -> None:
        """Drop every interned coalgebra and predicate, with every table
        entry keyed on them and the canonical order, once more than
        ``bound`` of either are interned.  The caller then sets the cids
        and loads afresh."""
        if len(self.coalgs) > bound or len(self.preds) > bound:
            self.coalgs.clear()
            self.preds.clear()
            for table in self._tables:
                table.clear()

    def compile(self, body: Formula) -> int:
        """The position of ``body``'s step, compiling its new subterms."""
        return self._compile(body)[0]

    def load(self, var_lists: list, size: int) -> None:
        """Take the variables' sigma-lists, all of length ``size``, and run
        group 0."""
        self._inputs[:] = var_lists, size
        self.run(0)

    def run(self, group: int) -> None:
        vals = self.vals
        for pos, step in self.groups[group]:
            vals[pos] = step(vals)

    def run_cases(self, size: int, coalgs: Sequence, sigmas: Sequence) -> None:
        """Run every step of a plan that is not canonical at ``size``
        cases, position ``i`` being case ``i``: ``coalgs`` holds one column
        of coalgebras per slot, slot 1 first, and ``sigmas`` one column of
        predicates per variable, each ``size`` long."""
        intern, pid = self.intern, self.pid
        self.cids[:] = [list(map(intern, column)) for column in coalgs]
        self._inputs[:] = [list(map(pid, column)) for column in sigmas], size
        vals = self.vals
        for group in self.groups:
            for pos, step in group:
                vals[pos] = step(vals)

    def case(self, i: int) -> tuple[list, list]:
        """The case at position ``i`` of the lists run last (by ``sweep``
        or ``run_cases``): the coalgebras on the slots, slot 1 first, and
        the predicates on the variables."""
        var_lists, size = self._inputs
        if self.canonical:
            cids = [self.cids[0][i // size], *self.cids[1:]] if self.cids else []
        else:
            cids = [ids[i] for ids in self.cids]
        return [self.coalgs[c] for c in cids], [self.preds[ids[i % size]] for ids in var_lists]

    def masks(self) -> list[int]:
        """Each interned predicate's ``crisp_mask``, by id; ``forget``
        empties it with the ids."""
        masks, preds, truth = self._masks, self.preds, self.config.truth
        masks.extend(crisp_mask(truth, p) for p in preds[len(masks):])
        return masks

    def run_new(self) -> None:
        """Run the steps compiled since the last call, at the loaded
        variables and the current cids."""
        vals, ran = self.vals, self._ran
        for g, group in enumerate(self.groups):
            for pos, step in group[ran[g]:]:
                vals[pos] = step(vals)
            ran[g] = len(group)

    def sweep(self, coalgs: int):
        """Run groups 1 and 2 at every assignment of the cids below
        ``coalgs`` to the slots and yield slot 1's block list after each
        run of group 2.  The outer slots move in ``product`` order, the
        last slot slowest, and group 1 runs once per outer assignment.
        Slot 1 takes its cids as consecutive block lists, so group 2 runs
        once per block list, not once per cid.  The first lists hold 1, 2,
        4, ... cids, so a sweep failing at slot-1 cid j of its first outer
        assignment has run at most 2j + 1 of them; from then on a list
        takes every cid that fits in ``SWEEP_IDS`` ids.  Position ``i`` of
        a list that reads slot 1 is the case of cid ``blocks[i // S]`` at
        sigma-position ``i % S``, S the loaded size: the order of a loop
        with slot 1 innermost.  With no slots there is one assignment,
        yielded as ``range(1)``."""
        cids = self.cids
        if not cids:
            yield range(1)
            return
        most, size = max(1, SWEEP_IDS // self._inputs[1]), 1
        for outer in product(range(coalgs), repeat=len(cids) - 1):
            cids[1:] = outer[::-1]
            self.run(1)
            lo = 0
            while lo < coalgs:
                cids[0] = blocks = range(lo, min(lo + size, coalgs))
                self.run(2)
                yield blocks
                lo, size = blocks.stop, min(2 * size, most)

    # -- compilation ------------------------------------------------------

    def _add(self, group: int, step) -> tuple[int, int]:
        pos = len(self.vals)
        self.vals.append(None)
        self.groups[group].append((pos, step))
        return pos, group

    def _keep(self, table):
        """``table``, to be emptied by ``forget``."""
        self._tables.append(table)
        return table

    def _lifting(self, lid: str):
        got = self._lifts.get(lid)
        if got is None:
            spec = self.config.lifting(lid)
            kernel, arity = lifting_kernel(spec, self.config), spec.arity
            rows, by_key = self._keep(defaultdict(dict)), self._keep(defaultdict(dict))
            preds, n, coalgs, pid, ids = self.preds, self.n, self.coalgs, self.pid, self._pred_ids
            truths = frozenset(range(self.config.truth.m))

            def fill(cid, keys):
                table, coalg = rows[cid], coalgs[cid]
                for key in keys:
                    if key not in table:
                        known = by_key[key]  # FValue -> its lifted truth value
                        new = [value for value in coalg if value not in known]
                        if new:
                            args = [preds[i] for i in key] if arity > 1 else [preds[key]]
                            known.update(zip(new, kernel(args, new, n)))
                        row = tuple(map(known.__getitem__, coalg))
                        if row not in ids and not truths.issuperset(row):
                            raise InvalidParameter(
                                f"lifting {lid!r} yields {row}, outside the truth algebra"
                            )
                        table[key] = pid(row)
                return list(map(table.__getitem__, keys))

            got = self._lifts[lid] = (arity, rows, fill)
        return got

    def _compile(self, node) -> tuple[int, int]:
        """A formula node's (position, group)."""
        got = self._pos.get(node)
        if got is not None:
            return got
        if isinstance(node, (Var, Prop)):
            var, inputs = self._variable(node), self._inputs

            def variable(vals):
                return inputs[0][var]

            got = self._add(0, variable)
        elif isinstance(node, Conn):
            got = self._conn(node)
        elif isinstance(node, Modal):
            got = self._modal(node)
        else:
            raise InvalidParameter(f"not a formula node: {node!r}")
        self._pos[node] = got
        return got

    def _action(self, node) -> tuple[int, int]:
        """An action node's (position, group); a slot is an int or an atom."""
        if isinstance(node, (int, Atomic)):
            return self._slot(node)
        got = self._pos.get(node)
        if got is not None:
            return got
        if isinstance(node, Op):
            got = self._op(node)
        elif isinstance(node, Test):
            got = self._test(node)
        else:
            raise InvalidParameter(f"not an action node: {node!r}")
        self._pos[node] = got
        return got

    def _variable(self, node) -> int:
        key = node.index if isinstance(node, Var) else node.name
        got = self._vars.get(key)
        if got is None:
            if isinstance(node, Var):
                raise InvalidParameter(
                    f"template variable w{key} is outside w1..w{len(self._vars)}"
                )
            raise UnknownIdentifier(f"proposition {key!r} is not interpreted")
        return got

    def _slot(self, node) -> tuple[int, int]:
        key = node.name if isinstance(node, Atomic) else node
        s = self._slots.get(key)
        if s is None:
            if isinstance(node, Atomic):
                raise UnknownAtom(f"atomic action {key!r} is not interpreted")
            raise InvalidParameter(f"template slot {key!r} is outside 1..{len(self._slots)}")
        got = self._pos.get(("slot", s))
        if got is None:
            cids = self.cids

            def slot(vals):
                return cids[s]

            got = self._pos["slot", s] = self._add(2 if s == 0 and self.canonical else 1, slot)
            if not self.canonical:
                self._each.add(got[0])
        return got

    def _conn(self, node: Conn) -> tuple[int, int]:
        pid, preds = self.pid, self.preds
        arity, interp = connective(self.config.truth, node.symbol, len(node.args))
        if arity == 0:
            row, inputs = (interp,) * self.n, self._inputs

            def constant(vals):
                return [pid(row)] * inputs[1]

            return self._add(0, constant)
        args = [self._compile(a) for a in node.args]
        group = max(g for _, g in args)
        if arity == 1:
            ((a, _),) = args
            table = self._keep({})

            def extra(vals):
                A = vals[a]
                try:
                    return list(map(table.__getitem__, A))
                except KeyError:
                    for u in A:
                        if u not in table:
                            table[u] = pid(tuple(interp[v] for v in preds[u]))
                    return list(map(table.__getitem__, A))

            return self._add(group, extra)
        a, b = self._aligned(args)
        rows = self._keep(defaultdict(dict))

        def binary(vals):
            A, B = vals[a], vals[b]
            try:
                return list(map(getitem, map(rows.__getitem__, A), B))
            except KeyError:
                for u, v in zip(A, B):
                    row = rows[u]
                    if v not in row:
                        pointwise = map(getitem, map(interp.__getitem__, preds[u]), preds[v])
                        row[v] = pid(tuple(pointwise))
                return list(map(getitem, map(rows.__getitem__, A), B))

        return self._add(group, binary)

    def _modal(self, node: Modal) -> tuple[int, int]:
        arity, rows, fill = self._lifting(node.lifting)
        if len(node.args) != arity:
            raise ArityMismatch(
                f"lifting {node.lifting!r} expects {arity} predicate(s), "
                f"got {len(node.args)}"
            )
        act, group = self._action(node.action)
        args = [self._compile(a) for a in node.args]
        keys, kgroup = args[0] if arity == 1 else self._keys(args)
        if group == 2 and kgroup == 2 and act not in self._each:
            act = self._spread(act)  # each block reads its own keys: go by position
        if act in self._each:  # one cid per position
            act, keys = self._aligned([(act, group), (keys, kgroup)])

            def modal(vals):
                C, K = vals[act], vals[keys]
                try:
                    return list(map(getitem, map(rows.__getitem__, C), K))
                except KeyError:
                    for c, key in zip(C, K):
                        fill(c, (key,))
                    return list(map(getitem, map(rows.__getitem__, C), K))

        elif group < 2:  # one cid

            def modal(vals):
                cid = vals[act]
                try:
                    return list(map(rows[cid].__getitem__, vals[keys]))
                except KeyError:
                    return fill(cid, vals[keys])

        else:  # a block list: each block's row reads the same S keys

            def read(blocks, K):
                if len(blocks) == 1:
                    return list(map(rows[blocks[0]].__getitem__, K))
                block_rows = map(rows.__getitem__, blocks)
                if len(K) == 1:  # a one-key itemgetter yields the entry, not a 1-tuple
                    return list(map(itemgetter(K[0]), block_rows))
                return list(chain.from_iterable(map(itemgetter(*K), block_rows)))

            def modal(vals):
                blocks, K = vals[act], vals[keys]
                try:
                    return read(blocks, K)
                except KeyError:
                    need = dict.fromkeys(K).keys()  # in order of first use, as one cid fills
                    for c in blocks:
                        if not rows[c].keys() >= need:
                            fill(c, need)
                    return read(blocks, K)

        return self._add(max(group, kgroup), modal)

    def _op(self, node: Op) -> tuple[int, int]:
        spec = self.config.op(node.op)
        spec.check_kind(self.config.kind)
        if len(node.args) != spec.arity:
            raise IncompatibleVariant(
                f"operation {spec.id!r} has arity {spec.arity}, "
                f"got {len(node.args)} actions"
            )
        args = [self._action(a) for a in node.args]
        group = max((g for _, g in args), default=0)
        positions = [pos for pos, _ in args]
        each = [pos in self._each for pos in positions]
        coalgs, fops, intern, variant = self.coalgs, self.fops, self.intern, spec.variant
        if variant in COMPOSITION_VARIANTS:
            # right operand cid -> its map: every map while the right operand
            # moves faster than the left or by position, else the last one
            right = self._keep({})
            keep = KEPT_MAPS if not self.canonical or args[1][1] == 2 > args[0][1] else 1

            def output(c1, c2):
                after = right.get(c2)
                if after is None:
                    if len(right) >= keep:
                        right.clear()
                    after = right[c2] = lru_cache(None)(composition_map(fops, variant, coalgs[c2]))
                return intern(tuple(map(after, coalgs[c1])))

        elif variant in POINTWISE_VARIANTS:
            steps, step = self._keep({}), pointwise_step(fops.alg, variant)

            def output(c1, c2):
                pairs = tuple(zip(coalgs[c1], coalgs[c2]))
                try:
                    return intern(tuple(map(steps.__getitem__, pairs)))
                except KeyError:
                    for pair in pairs:
                        if pair not in steps:
                            steps[pair] = step(*pair)
                    return intern(tuple(map(steps.__getitem__, pairs)))

        else:

            def output(*key):
                return intern(apply_op(spec, [coalgs[c] for c in key], fops))

        if len(args) == 1 or any(each):
            # memoised by operand cids where these are few: one operand, or
            # test outputs; a pair of slots has C**2
            table, compute = self._keep({}), output

            def output(*key):
                got = table.get(key)
                if got is None:
                    got = table[key] = compute(*key)
                return got

        if any(each) and group == 2:
            # one cid per position of every block: S-long lists tiled,
            # block lists spread over their S positions
            for i, (pos, g) in enumerate(args):
                if g == 2 and not each[i]:
                    positions[i], each[i] = self._spread(pos), True
                elif g < 2 and each[i]:
                    positions[i] = self._tiled(pos)
        # a list of cids per operand that has one: per position, or per block
        listed = [e or g == 2 for e, (_, g) in zip(each, args)]
        if any(listed):

            def op(vals):
                cols = [vals[i] if e else repeat(vals[i]) for i, e in zip(positions, listed)]
                return list(map(output, *cols))

            if listed.count(True) == 1 and (
                variant in POINTWISE_VARIANTS or variant in COMPOSITION_VARIANTS and listed[0]
            ):
                op = self._tabled(op, positions, listed[0], variant)

        elif len(positions) == 1:
            (a,) = positions

            def op(vals):
                return output(vals[a])

        else:
            a, b = positions

            def op(vals):
                return output(vals[a], vals[b])

        got = self._add(group, op)
        if any(each):
            self._each.add(got[0])
        return got

    def _tabled(self, by_cid, positions, left: bool, variant: str):
        """A binary operation step over one listed operand and one fixed
        cid that, on a canonically interned plan, reads its output cids off
        the fixed operand's table: the output cid against every cid of the
        enumeration, kept for the last fixed cid.  Per state x the step
        gives a row of output vids, one per listed vid, and the table is
        the sum over x of V**(n-1-x) times row x read at the listed cid's
        x-th digit, built by Horner's rule in canonical order.  Elsewhere
        the step is ``by_cid``."""
        canon, coalgs, fops, n = self._canon, self.coalgs, self.fops, self.n
        at, fixed = positions if left else positions[::-1]
        kept = self._keep({})  # fixed cid -> its table
        if variant in COMPOSITION_VARIANTS:  # the left operand is listed

            def rows(f):
                vid, values = canon
                after = composition_map(fops, variant, coalgs[f])
                return [list(map(vid.__getitem__, map(after, values)))] * n

        else:
            step, known = pointwise_step(fops.alg, variant), self._keep({})  # FValue -> row

            def rows(f):
                vid, values = canon
                out = []
                for w in coalgs[f]:
                    row = known.get(w)
                    if row is None:
                        outs = [step(u, w) if left else step(w, u) for u in values]
                        row = known[w] = list(map(vid.__getitem__, outs))
                    out.append(row)
                return out

        def op(vals):
            if not canon:
                return by_cid(vals)
            f = vals[fixed]
            table = kept.get(f)
            if table is None:
                kept.clear()
                table, V = [0], len(canon[1])
                for row in rows(f):
                    table = [t * V + r for t in table for r in row]
                kept[f] = table
            return list(map(table.__getitem__, vals[at]))

        return op

    def _test(self, node: Test) -> tuple[int, int]:
        spec = self.config.test(node.test)
        spec.check_kind(self.config.kind)
        a, group = self._compile(node.arg)
        table, preds, fops, truth = self._keep({}), self.preds, self.fops, self.config.truth
        intern = self.intern

        def test(vals):
            A = vals[a]
            try:
                return list(map(table.__getitem__, A))
            except KeyError:
                for u in A:
                    if u not in table:
                        table[u] = intern(apply_test(spec, preds[u], fops, truth))
                return list(map(table.__getitem__, A))

        got = self._add(group, test)
        self._each.add(got[0])
        return got

    def _keys(self, args) -> tuple[int, int]:
        """A step zipping the argument ids into lifting keys, one id tuple
        per position."""
        positions = tuple(self._aligned(args))
        got = self._pos.get(positions)
        if got is None:

            def keys(vals):
                return list(zip(*map(vals.__getitem__, positions)))

            got = self._pos[positions] = self._add(max(g for _, g in args), keys)
        return got

    def _aligned(self, args) -> list[int]:
        """The positions of per-position lists read side by side: where one
        reads slot 1, the S-long ones are tiled to its length."""
        if all(g < 2 for _, g in args):
            return [pos for pos, _ in args]
        return [pos if g == 2 else self._tiled(pos) for pos, g in args]

    def _tiled(self, pos: int) -> int:
        """A group-2 step repeating the S-long list at ``pos`` once per block."""
        got = self._pos.get(("tile", pos))
        if got is None:
            cids = self.cids

            def tile(vals):
                return vals[pos] * len(cids[0])

            got = self._pos["tile", pos] = self._add(2, tile)
        return got[0]

    def _spread(self, pos: int) -> int:
        """A group-2 step repeating each cid of the block list at ``pos`` at
        its block's S positions."""
        got = self._pos.get(("spread", pos))
        if got is None:
            inputs = self._inputs

            def spread(vals):
                return list(chain.from_iterable(map(repeat, vals[pos], repeat(inputs[1]))))

            got = self._pos["spread", pos] = self._add(2, spread)
            self._each.add(got[0])
        return got[0]


class EvalSession:
    """Evaluates formulas and actions over one model through one plan.

    The model's atoms are the plan's slots and its valuation rows the
    variables, at a single case.  ``eval`` and ``interpret`` compile their
    argument into the plan and run only the steps no earlier call has run,
    so each subterm is computed at most once per session.  Distinct
    sessions may run concurrently; a single session must not be shared
    across threads.
    """

    def __init__(self, model: Model):
        self.model = model
        self._start()

    def _start(self) -> None:
        model = self.model
        self.plan = Plan(model.config, model.n, list(model.atoms), list(model.valuation))
        atoms, rows = model.atoms.values(), model.valuation.values()
        self.plan.run_cases(1, [[gamma] for gamma in atoms], [[row] for row in rows])

    def eval(self, formula: Formula) -> Predicate:
        plan = self.plan
        pos = plan.compile(formula)
        self._run()
        return plan.preds[plan.vals[pos][0]]

    def interpret(self, action) -> Coalgebra:
        if not isinstance(action, (Atomic, Op, Test)):
            raise InvalidParameter(f"not an action node: {action!r}")
        plan = self.plan
        pos = plan._action(action)[0]
        self._run()
        return plan.coalgs[plan.vals[pos][0]]

    def _run(self) -> None:
        try:
            self.plan.run_new()
        except BaseException:
            # start afresh rather than leave a failed step pending
            self._start()
            raise


def eval_formula(model: Model, formula: Formula) -> Predicate:
    """One-shot evaluation with a fresh session."""
    return model.session().eval(formula)


def interpret_action(model: Model, action, session: EvalSession | None = None) -> Coalgebra:
    """Standard-model interpretation of an action term."""
    return (session or model.session()).interpret(action)
