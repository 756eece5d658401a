"""Predicate liftings, models and the formula evaluator.

A model fixes a carrier size, a logic configuration (functor kind, truth and
structure algebras, the lifting/operation/test catalogue), coalgebras for the
atomic actions and a propositional valuation.  Formulas, actions and rule
templates have one evaluator, the Plan: they compile once into a flat list
of steps, one step per distinct subterm, which run on predicate, value and
coalgebra ids.  Both sides of a reduction rule are formulas over variables
and action slots (the template, and the lifting applied to the operation
over slots 1..arity or to the test of variable 1); a formula is the same
kind of object, its propositions playing the variables and its atomic
actions the slots.  So the rule-soundness and entailment sweeps share the
plan: an exhaustive sweep runs its slot loop, ``Plan.sweep``, over blocks
of cases that share their coalgebras, each step holding one interned
vector of predicate ids per block; a sampled one runs batches of drawn
cases, ``Plan.run_cases``, one case per block; and an EvalSession is a
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
from itertools import chain, product, repeat
from operator import getitem, itemgetter
from typing import Mapping, Sequence

from .actions import (
    COMPOSITION_VARIANTS,
    LOCAL_OPERANDS,
    POINTWISE_VARIANTS,
    UNARY_STEP_VARIANTS,
    Coalgebra,
    OperationSpec,
    TestSpec,
    apply_op,
    apply_test,
    composition_map,
    pointwise_step,
    unary_step,
)
from .algebra import Algebra
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    IncompatibleVariant,
    InvalidParameter,
    UnknownAtom,
    UnknownIdentifier,
)
from .functors import (
    Kind,
    NEIGHBOURHOOD_KINDS,
    FunctorOps,
    _Table,
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


class _Interner(dict):
    """A dict giving a value's index in ``values``, appending the value on
    first sight."""

    __slots__ = ("values",)

    def __init__(self, values: list):
        self.values = values

    def __missing__(self, value):
        got = self[value] = len(self.values)
        self.values.append(value)
        return got


def op_outputs(spec: OperationSpec, fops: FunctorOps, values: list, vid, table, keep=None):
    """Operation ``spec``'s output as a function from the tuple of its
    operand coalgebras, each the tuple of its states' vids, to the output's
    vid tuple.  ``values`` holds each vid's FValue and ``vid`` gives a value's
    vid, interning it on first sight.

    The output is read from one-step tables, each made by ``table``:
    a pointwise operation's by the operands' vids at a state, a unary local
    one's by (state, vid), and a composition's as one row per right
    operand, from a left vid to the output vid, of which at most ``keep``
    are kept (every one where ``keep`` is None).  ``star`` reads its
    operand whole, through ``apply_op``."""
    variant = spec.variant
    if variant in POINTWISE_VARIANTS:
        step = pointwise_step(fops.alg, variant)
        get = table(lambda uv: vid(step(values[uv[0]], values[uv[1]]))).__getitem__
        return lambda keys: tuple(map(get, zip(*keys)))
    if variant in UNARY_STEP_VARIANTS:
        local = unary_step(fops, variant)
        get = table(lambda xu: vid(local(xu[0], values[xu[1]]))).__getitem__
        return lambda keys: tuple(map(get, enumerate(keys[0])))
    if variant in COMPOSITION_VARIANTS:
        rows = table()  # right operand -> its row: left vid -> output vid

        def composed(keys):
            left, right = keys
            row = rows.get(right)
            if row is not None:
                return tuple(map(row.__getitem__, left))
            if len(rows) == keep:
                rows.clear()
            cmap = composition_map(fops, variant, tuple(map(values.__getitem__, right)))
            row = rows[right] = _Table(lambda u: vid(cmap(values[u])))
            out = tuple(map(vid, map(cmap, map(values.__getitem__, left))))
            row.update(zip(left, out))
            return out

        return composed

    def whole(keys):
        gammas = [tuple(map(values.__getitem__, g)) for g in keys]
        return tuple(map(vid, apply_op(spec, gammas, fops)))

    return whole


# a block list of slot 1 covers at most this many cases (S per slot-1
# cid), so the blocks a step reads at once do not grow with the number of
# coalgebras
SWEEP_IDS = 1 << 16

# a composition whose right operand reads slot 1 and its left operand does
# not keeps at most this many right operands' maps
KEPT_MAPS = 256


def _single(key):
    """What ``itemgetter(key)`` gets, as a 1-tuple."""

    def get(row):
        return (row[key],)

    return get


def _columns(vecs, decode, size, ids, listed, new) -> list:
    """Arguments' ids at every sigma-position of the blocks ``new``, one
    list per argument: ``new`` holds each block's ids of the arguments at
    ``listed`` (one id where one is listed), ``ids`` the others' ids, and
    ``decode`` says which ids name vectors of ``vecs``, not cids."""
    count = len(new)
    cols = list(ids)
    if count == 1:  # one block: its ids, each vector as it is
        for i, u in zip(listed, new[0] if len(listed) > 1 else new):
            cols[i] = u
        return [vecs[u] if d else (u,) * size for u, d in zip(cols, decode)]
    for i, d in enumerate(decode):
        if i not in listed:
            cols[i] = vecs[ids[i]] * count if d else (ids[i],) * (size * count)
    for i, col in zip(listed, zip(*new) if len(listed) > 1 else (new,)):
        if decode[i]:
            cols[i] = list(chain.from_iterable(map(vecs.__getitem__, col)))
        else:
            cols[i] = list(chain.from_iterable(map(repeat, col, repeat(size))))
    return cols


def _nothing(vals) -> None:
    """The key of the one row of a step whose arguments all hold one id per
    block."""
    return None


def _zipped(*cols) -> list:
    """A k-ary lifting's keys, one tuple of argument ids per position."""
    return list(zip(*cols))


class Plan:
    """Formulas and actions compiled for one configuration and carrier size
    and evaluated on small integers.

    A predicate is its id, its index in ``preds``; an FValue is its vid, its
    index in ``values``; a coalgebra is its cid, its index in ``coalgs``,
    which holds the tuple of its states' vids.  All are interned on first
    sight (``pid``, ``vid``, ``intern``), so a plan over one large model meets
    only the predicates and values that model yields, and FValues are only met
    where cases come in (``run_cases``) and go out (``case``, ``decode``).  A
    canonical plan (an exhaustive sweep's) sets up its own case space when
    it sweeps (``sweep``): it interns the values, every coalgebra over them
    and the whole predicate space in canonical order, so a cid's base-V
    digits are its states' vids, V the number of FValues, and no step
    interns another.  A template's leaves are variables and its modalities
    hold action slots; a formula compiles the same way, its propositions
    playing the variables and its atomic actions the slots.  Each distinct
    subterm becomes one step.

    Steps run over blocks of cases.  The cases of a block share their
    coalgebras and differ in the variables' predicates: a canonical plan
    loads all S assignments of predicates to the variables, one sigma-list
    per variable in canonical order, and a block is one assignment of cids
    to the slots at all S of them.  A plan that is not canonical (a sampled
    sweep's, or a session's) runs a batch of drawn cases (``run_cases``),
    each case its own block, so S is 1 there.

    Steps fall into groups by what they read: 0 the variables only, 1 also
    a slot other than the first, 2 the first slot.  On a canonical plan
    slot 1 is a block list, every cid the sweep gives it at once, and a
    step of group 2 holds one id per block of that list, one of group 0 or
    1 one id in all, standing for every block.  A formula step's id names
    a vector, the tuple of its S pids at the block's sigma-positions,
    interned in ``vecs``, so equal vectors have equal ids.  An action
    step's id is a cid, unless the action reads a test: a test's cids
    differ by sigma-position, so it holds the id of the vector of its S
    cids, as does an operation over it.  On a plan that is not canonical
    every step holds one id per position, position ``i`` being case
    ``i``, and that id is a pid or a cid itself: the vector of one id.

    A step over vectors reads a vector table keyed by its arguments' ids:
    the ids of the arguments that hold one id in all pick a row, and each
    block's ids of the others an entry.  A missing entry is computed from
    the arguments' vectors (a cid standing for S copies of itself) by the
    step's per-position function, the step of a plan that is not
    canonical, run once over every new block of the list, and its output
    is interned one block at a time; a modality over a block list of cids
    beside one key vector instead reads each new cid's lifting row at the
    vector's keys through one ``itemgetter``.  So a step computes each
    distinct input once, however many blocks repeat it (``entries``
    counts them), and a comparison of two steps compares one id per
    block.

    The per-position functions read id tables whose entries are computed on
    first use, key by key (``_Table``): an extra connective keys on its
    argument id, a binary one on both, a test on its argument's id and an
    operation's memo on its operand cids.  A lifting keys on the cid of its
    action and its argument id (a tuple of ids for a k-ary lifting) and fills
    every key a cid lacks at once, as a step over two listed arguments fills
    its new blocks, since a call per key costs more.  It reads the lifted
    truth values of the coalgebra's vids, each computed once by the lifting's
    kernel and kept per vid, since sampled coalgebras seldom recur but their
    values do; on a canonical plan the kernel computes every interned value at
    a key's first miss.  An operation's outputs come from ``op_outputs``, as a
    safety sweep's do: one-step tables by vid, of which a composition keeps
    every right operand's row, up to ``KEPT_MAPS``, on a plan that is not
    canonical or where an operand reads a test, the right one reads slot 1 and
    the left does not, and else the last one.  The step keeps its outputs by
    operand cids only where those are few (one operand, a test among them, or
    a plan that is not canonical); a pair of slots, of which there are C**2,
    is assembled state by state from the one-step tables.  On a canonical
    plan, a binary operation over one listed operand and one fixed cid, either
    read only at the evaluated state, skips all that (``_tabled``): its output
    at listed cid c is the sum over states x of V**(n-1-x) times an output
    vid, read at c's x-th digit in a row read off ``op_outputs`` once per
    fixed cid or, where a composition's right operand is listed, at c in the
    column of the fixed cid's x-th digit, read once per right cid and
    operation; it reads these sums off one table per fixed cid.  ``forget``
    drops every id, vid, vector and table, so a long sampled sweep can bound
    its memory; ``reset`` also undoes ``narrow``, so a compiled plan can be
    kept and swept again as if new.
    ``sweep`` runs group 1 once per assignment of the outer slots and group 2
    once per block list, ``run_cases`` every step once per batch; ``block``
    decodes a step's ids at a block and ``case`` the case at a position,
    position ``i`` being block ``i // S`` at sigma-position ``i % S``;
    ``run_new`` runs each step compiled since, for an EvalSession.

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
        self.values: list = []  # vid -> FValue
        self.coalgs: list = []  # cid -> its states' vids
        self.vecs: list = []  # vector id -> its ids at the S sigma-positions
        self._slots = {key: s for s, key in enumerate(slots)}  # slot or atom -> slot - 1
        self._vars = {key: v for v, key in enumerate(variables)}  # variable or prop -> variable
        # slot - 1 -> its cid, or its cids: slot 1's block list when
        # canonical, else one cid per position on every slot
        self.cids: list = [0] * len(self._slots)
        self.vals: list = []  # step position -> its id, or its ids
        self.groups: list[list] = [[], [], []]  # (position, step), run order
        self._full: list | None = None  # the groups before ``narrow`` first trimmed them
        self._deps: list = []  # position -> the positions its step reads
        self._ran = [0, 0, 0]  # steps of each group that run_new has run
        # the variables' sigma-lists, their length, and what each
        # variable's step holds: its vector id when canonical, else its list
        self._inputs: list = [[], 1, []]
        self._pos: dict = {}  # node -> (position, group)
        self._vectored: set = set()  # positions whose ids name vectors
        self._memos: dict = {}  # position -> its step's vector table
        self._lifts: dict = {}  # lifting id -> (arity, per-position function, row reader)
        self._tables: list = []  # everything forget empties
        self._cols = self._keep(_Table(lambda name: []))  # operation id -> ``_tabled``'s columns
        self._pred_ids = self._keep(_Interner(self.preds))
        self._masks = self._keep([])  # id -> its states at top, see ``masks``
        # steps hold no reference to the plan, so a finished sweep's plan is
        # freed at once rather than by the cycle collector
        self.pid = self._pred_ids.__getitem__
        self.vid = self._keep(_Interner(self.values)).__getitem__
        self.intern = self._keep(_Interner(self.coalgs)).__getitem__
        self._vector = self._keep(_Interner(self.vecs)).__getitem__

    def decode(self, cid: int) -> Coalgebra:
        """The coalgebra of ``cid``, as a tuple of FValues."""
        return tuple(map(self.values.__getitem__, self.coalgs[cid]))

    def forget(self, bound: int) -> None:
        """Drop every interned value, coalgebra, predicate and vector of a
        plan that is not canonical, with every table entry keyed on them,
        once more than ``bound`` coalgebras or predicates are interned.  The
        caller then runs its cases afresh.  ``reset`` drops them whatever
        their number."""
        if len(self.coalgs) > bound or len(self.preds) > bound:
            for table in (self.values, self.coalgs, self.preds, self.vecs, *self._tables):
                table.clear()

    def reset(self) -> None:
        """Put the plan back in the state its compilation left: no id,
        table entry, loaded case or step output, and every step running
        again (undoing ``narrow``).  A sweep of the reset plan then interns,
        draws and reports as one of a freshly compiled plan would, and a
        stored plan holds only its compiled steps."""
        self.forget(-1)
        if self._full is not None:
            for group, full in zip(self.groups, self._full):
                group[:] = full
            self._full = None
        self.vals[:] = [None] * len(self.vals)
        self.cids[:] = [0] * len(self.cids)
        self._inputs[:] = [], 1, []

    def compile(self, body: Formula) -> int:
        """The position of ``body``'s step, compiling its new subterms."""
        return self._compile(body)[0]

    def run(self, group: int) -> None:
        vals = self.vals
        for pos, step in self.groups[group]:
            vals[pos] = step(vals)

    def run_cases(self, size: int, coalgs: Sequence, sigmas: Sequence) -> None:
        """Run every step of a plan that is not canonical at ``size``
        cases, position ``i`` being case ``i``: ``coalgs`` holds one column
        of coalgebras per slot, slot 1 first, and ``sigmas`` one column of
        predicates per variable, each ``size`` long."""
        vid, intern, pid = self.vid, self.intern, self.pid
        # a column's FValues state by state to vids, then each vid tuple to its cid
        self.cids[:] = [
            list(map(intern, zip(*[map(vid, states) for states in zip(*column)])))
            for column in coalgs
        ]
        ids = [list(map(pid, column)) for column in sigmas]
        self._inputs[:] = ids, size, ids
        vals = self.vals
        for group in self.groups:
            for pos, step in group:
                vals[pos] = step(vals)

    @property
    def size(self) -> int:
        """How many sigma-positions a block has: S if canonical, else 1."""
        return self._inputs[1] if self.canonical else 1

    def case(self, i: int) -> tuple[list, list]:
        """The case at position ``i`` of the lists run last (by ``sweep``
        or ``run_cases``): the coalgebras on the slots, slot 1 first, and
        the predicates on the variables."""
        var_lists, size = self._inputs[:2]
        if self.canonical:
            cids = [self.cids[0][i // size], *self.cids[1:]] if self.cids else []
        else:
            cids = [ids[i] for ids in self.cids]
        return list(map(self.decode, cids)), [self.preds[ids[i % size]] for ids in var_lists]

    def block(self, pos: int, j: int) -> tuple:
        """The ids the step at ``pos`` held at block ``j`` of its last run,
        one per sigma-position: pids for a formula, cids for an action,
        tuples of pids for a k-ary lifting's keys.  A step that holds one
        id in all holds it at every block."""
        ids = self.vals[pos]
        if not isinstance(ids, int):
            ids = ids[j]
        if pos in self._vectored:
            return self.vecs[ids]
        return (ids,) * self.size

    def entries(self) -> dict[int, int]:
        """How many vector-table entries each step of a canonical plan has
        computed, by position: one per distinct input it has read."""
        return {
            pos: sum(len(row) if isinstance(row, dict) else 1 for row in table.values())
            for pos, table in self._memos.items()
        }

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

    def narrow(self, positions) -> None:
        """From now on run only the steps that the steps at ``positions``
        read, directly or not, and those steps; the others keep the ids of
        their last run.  A sweep calls it between block lists, once the
        steps it compares are fewer.  The first call keeps the full step
        lists, which ``reset`` puts back."""
        if self._full is None:
            self._full = [list(group) for group in self.groups]
        need, todo = set(), list(positions)
        while todo:
            pos = todo.pop()
            if pos not in need:
                need.add(pos)
                todo.extend(self._deps[pos])
        for group in self.groups:
            group[:] = [(pos, step) for pos, step in group if pos in need]

    def sweep(self, budget: int, models: bool = False):
        """Set up a canonical plan's case space, then run groups 1 and 2 at
        every assignment of its C cids to the slots and yield slot 1's block
        list after each run of group 2.  The set-up enumerates FX (where
        there are slots) and checks the C**slots coalgebra tuples, or with
        ``models`` the C**slots * S standard models, against ``budget``
        before it interns anything; then it interns FX, every coalgebra
        over it and every predicate in canonical order (vid u the u-th
        value, cid i the i-th of ``product(range(V), repeat=n)``), loads
        the S assignments of predicates to the variables in ``product``
        order and runs group 0.

        The outer slots move in ``product`` order, the last slot slowest,
        and group 1 runs once per outer assignment.  Slot 1 takes its cids as
        consecutive block lists, so group 2 runs once per block list, not
        once per cid.  The first list holds the cids of about
        ``SWEEP_IDS`` / 1024 cases (at least one cid) and each next one
        twice as many, so a sweep failing at slot-1 cid j of its first outer
        assignment has run at most 2j + 1 cids or that first list; from then
        on a list takes every cid whose blocks fit in ``SWEEP_IDS`` cases.
        Block ``j`` of a list is the cases of cid ``blocks[j]``, so position
        ``i`` of the list's cases is cid ``blocks[i // S]`` at
        sigma-position ``i % S``: the order of a loop with slot 1 innermost.
        With no slots there is one assignment, yielded as ``range(1)``."""
        n, cids = self.n, self.cids
        values = list(self.fops.enumerate(budget)) if cids else []
        S = (self.config.truth.m**n) ** len(self._vars)
        total = len(values) ** (n * len(cids)) * (S if models else 1)
        if total > budget:
            unit = "standard models" if models else "coalgebra tuples"
            raise BudgetExceeded(
                f"{total} {unit} at n={n} exceed budget {budget}; random mode is available",
                count=total,
            )
        for value in values:
            self.vid(value)
        for g in product(range(len(values)), repeat=n):
            self.intern(g)
        for pred in predicate_space(self.config.truth.m, n):
            self.pid(pred)
        P, k = len(self.preds), len(self._vars)
        var_lists = [list(ids) for ids in zip(*product(range(P), repeat=k))]
        self._inputs[:] = var_lists, S, [self._vector(tuple(ids)) for ids in var_lists]
        self.run(0)
        if not cids:
            yield range(1)
            return
        coalgs = len(self.coalgs)
        most = max(1, SWEEP_IDS // S)
        size = max(1, most >> 10)
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

    def _add(self, group: int, step, vectored: bool = False, deps=()) -> tuple[int, int]:
        pos = len(self.vals)
        self.vals.append(None)
        self._deps.append(deps)
        self.groups[group].append((pos, step))
        if vectored:
            self._vectored.add(pos)
        return pos, group

    def _keep(self, table):
        """``table``, to be emptied by ``forget``."""
        self._tables.append(table)
        return table

    def _step(self, args, cells, read=None) -> tuple[int, int]:
        """A step over its arguments' ids, ``(position, group)`` each,
        through ``cells``, a function from one id list per argument, all
        of one length, to the list of output ids at those positions.  On a
        plan that is not canonical the step is ``cells`` over the
        arguments' lists.  On a canonical one it holds vector ids and reads
        them from a vector table, computing the missing entries of a block
        list at once through ``cells`` over the arguments' vectors, or
        through ``read``, which maps the first argument's cids at the new
        blocks and the second's one id in all to the output vectors."""
        positions, groups = zip(*args)
        group = max(groups)
        if not self.canonical:

            def step(vals):
                return cells(*map(vals.__getitem__, positions))

            return self._add(group, step, deps=positions)
        step, table = self._vectors(positions, groups, cells, read)
        got = self._add(group, step, True, positions)
        self._memos[got[0]] = table
        return got

    def _vectors(self, positions, groups, cells, read):
        """The step of ``_step`` on a canonical plan, with its table, which
        maps the ids of the arguments that hold one id in all to the step's
        output id, or, where some argument holds one id per block, to a row
        mapping each block's ids of those arguments to it."""
        vecs, vector, inputs = self.vecs, self._vector, self._inputs
        decode = list(map(self._vectored.__contains__, positions))  # else a cid
        listed = [i for i, g in enumerate(groups) if g == 2]
        if read is not None:  # each new block's cid (or the one cid), and a key vector

            def compute(ids, new):
                return list(map(vector, read(new if listed else ids[:1], ids[1])))

        else:

            def compute(ids, new):
                size = inputs[1]
                out = cells(*_columns(vecs, decode, size, ids, listed, new))
                return list(map(vector, zip(*[iter(out)] * size)))

        if not listed:
            table = self._table(lambda ids: compute(ids, ((),))[0])
            get = table.__getitem__

            def step(vals):
                return get(tuple(map(vals.__getitem__, positions)))

            return step, table
        table = self._table()
        if len(listed) == 2 == len(positions):  # a row per block's first id
            # new entries fill as one batch: a ``_Table``'s per-key calls cost more
            a, b = positions

            def step(vals):
                A, B = vals[a], vals[b]
                try:
                    return list(map(getitem, map(table.__getitem__, A), B))
                except KeyError:
                    new = [k for k in dict.fromkeys(zip(A, B)) if k[1] not in table.get(k[0], ())]
                    for (u, v), got in zip(new, compute((A, B), new)):
                        table.setdefault(u, {})[v] = got
                    return list(map(getitem, map(table.__getitem__, A), B))

            return step, table
        # a row per id of the arguments that hold one id in all (their
        # tuple, where not one), its entries at the others' ids per block
        fixed = [pos for pos, g in zip(positions, groups) if g < 2]
        key_of = itemgetter(*fixed) if fixed else _nothing
        if len(listed) == 1:
            blocks_of = itemgetter(positions[listed[0]])
        else:
            listed_of = itemgetter(*[positions[i] for i in listed])

            def blocks_of(vals):
                return list(zip(*listed_of(vals)))

        def step(vals):
            blocks, key = blocks_of(vals), key_of(vals)
            row = table.get(key)
            if row is None:  # every block is new
                new = table[key] = dict.fromkeys(blocks)
                new.update(zip(new, compute(list(map(vals.__getitem__, positions)), list(new))))
                return list(map(new.__getitem__, blocks))
            try:
                return list(map(row.__getitem__, blocks))
            except KeyError:
                new = [b for b in dict.fromkeys(blocks) if b not in row]
                row.update(zip(new, compute(list(map(vals.__getitem__, positions)), new)))
                return list(map(row.__getitem__, blocks))

        return step, table

    def _lifting(self, lid: str):
        got = self._lifts.get(lid)
        if got is None:
            spec = self.config.lifting(lid)
            kernel, arity = lifting_kernel(spec, self.config), spec.arity
            rows, by_key = self._keep(defaultdict(dict)), self._keep(defaultdict(dict))
            preds, n, coalgs, pid, ids = self.preds, self.n, self.coalgs, self.pid, self._pred_ids
            truths = frozenset(range(self.config.truth.m))
            vecs, values, canonical = self.vecs, self.values, self.canonical

            def fill(cid, keys):  # the entries of cid's row at keys it lacks
                table, coalg = rows[cid], coalgs[cid]
                for key in keys:
                    if key in table:
                        continue
                    known = by_key[key]  # vid -> its lifted truth value
                    if canonical and not known:  # every value interned at once
                        new = range(len(values))
                    else:
                        new = [u for u in coalg if u not in known]
                    if new:
                        args = [preds[i] for i in key] if arity > 1 else [preds[key]]
                        known.update(zip(new, kernel(args, list(map(values.__getitem__, new)), n)))
                    row = tuple(map(known.__getitem__, coalg))
                    if row not in ids and not truths.issuperset(row):
                        raise InvalidParameter(
                            f"lifting {lid!r} yields {row}, outside the truth algebra"
                        )
                    table[key] = pid(row)

            # rows fill per cid: a ``_Table``'s per-(cid, key) calls cost more
            def modal(C, K):  # the lifted predicate's id per (cid, key) position
                try:
                    return list(map(getitem, map(rows.__getitem__, C), K))
                except KeyError:
                    need = {}  # cid -> its missing keys, in order of first use
                    for c, key in zip(C, K):
                        if key not in rows[c]:
                            need.setdefault(c, {})[key] = None
                    for c, keys in need.items():
                        fill(c, keys)
                    return list(map(getitem, map(rows.__getitem__, C), K))

            def read(C, K):  # each cid's row at the keys of vector K, by one itemgetter
                keys = vecs[K]
                get = itemgetter(*keys) if len(keys) > 1 else _single(keys[0])
                try:
                    return list(map(get, map(rows.__getitem__, C)))
                except KeyError:
                    for c in C:
                        fill(c, keys)
                    return list(map(get, map(rows.__getitem__, C)))

            got = self._lifts[lid] = (arity, modal, read)
        return got

    def _compile(self, node) -> tuple[int, int]:
        """A formula node's (position, group)."""
        got = self._pos.get(node)
        if got is not None:
            return got
        if isinstance(node, (Var, Prop)):
            var, inputs = self._variable(node), self._inputs

            def variable(vals):
                return inputs[2][var]

            got = self._add(0, variable, self.canonical)
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
        return got

    def _conn(self, node: Conn) -> tuple[int, int]:
        pid, preds = self.pid, self.preds
        arity, interp = connective(self.config.truth, node.symbol, len(node.args))
        if arity == 0:
            row, inputs, vector = (interp,) * self.n, self._inputs, self._vector
            if self.canonical:

                def constant(vals):
                    return vector((pid(row),) * inputs[1])

            else:

                def constant(vals):
                    return [pid(row)] * inputs[1]

            return self._add(0, constant, self.canonical)
        args = [self._compile(a) for a in node.args]
        if arity == 1:
            table = self._table(lambda u: pid(tuple(interp[v] for v in preds[u])))

            def extra(A):
                return list(map(table.__getitem__, A))

            return self._step(args, extra)

        def row(u):  # left id u's row: right id -> the output's id
            left = list(map(interp.__getitem__, preds[u]))
            return _Table(lambda v: pid(tuple(map(getitem, left, preds[v]))))

        rows = self._table(row)

        def binary(A, B):  # dict.__getitem__: operator.getitem is slower on a dict subclass
            return list(map(dict.__getitem__, map(rows.__getitem__, A), B))

        return self._step(args, binary)

    def _modal(self, node: Modal) -> tuple[int, int]:
        arity, modal, read = self._lifting(node.lifting)
        if len(node.args) != arity:
            raise ArityMismatch(
                f"lifting {node.lifting!r} expects {arity} predicate(s), "
                f"got {len(node.args)}"
            )
        act = self._action(node.action)
        args = [self._compile(a) for a in node.args]
        keys = args[0] if arity == 1 else self._keys(args)
        # a cid, not a vector of them, beside one key vector in all reads
        # its row at those keys
        by_row = keys[1] < 2 and act[0] not in self._vectored
        return self._step([act, keys], modal, read if by_row else None)

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
        # an operand reads a test, so its cids differ by sigma-position
        by_sigma = not self._vectored.isdisjoint(positions)
        keep = None
        if spec.variant in COMPOSITION_VARIANTS:
            # every right operand's row where right operands recur: on drawn
            # cases, and over a test's cids while the right operand reads
            # slot 1 and the left does not; else the last one
            recur = not self.canonical or by_sigma and args[1][1] == 2 > args[0][1]
            keep = KEPT_MAPS if recur else 1
        outputs = op_outputs(spec, self.fops, self.values, self.vid, self._table, keep)
        coalgs, intern = self.coalgs, self.intern
        if len(args) == 1 or by_sigma or not self.canonical:
            # memoised by operand cids where these are few: one operand, a
            # test's cids, or drawn cases; a pair of slots has C**2
            memo = self._table(lambda key: intern(outputs(tuple(map(coalgs.__getitem__, key)))))

            def cells(*cols):  # the output cids at columns of operand cids
                return list(map(memo.__getitem__, zip(*cols)))

        else:

            def cells(*cols):
                operands = [map(coalgs.__getitem__, col) for col in cols]
                return list(map(intern, map(outputs, zip(*operands))))

        if by_sigma:
            return self._step(args, cells)
        # a list of cids per operand that has one: per position, or per block
        listed = [g == 2 or not self.canonical for _, g in args]
        local = LOCAL_OPERANDS[spec.variant]
        if listed.count(True) == 1 and len(args) == 2 and local:
            on, off = listed.index(True) in local, listed.index(False) in local
            op = self._tabled(spec.id, outputs, positions, listed[0], on, off)
        elif any(listed):

            def op(vals):
                cols = [vals[i] if e else repeat(vals[i]) for i, e in zip(positions, listed)]
                return cells(*cols)

        else:

            def op(vals):
                return cells(*[[vals[i]] for i in positions])[0]

        return self._add(group, op, deps=positions)

    def _tabled(self, name: str, outputs, positions, left: bool, on: bool, off: bool):
        """A binary operation step over one listed operand and one fixed cid
        of a canonical plan, which reads its output cids off the fixed cid's
        table: the output cid against every cid of the
        enumeration, kept for the last fixed cid.  ``on`` and ``off`` say
        whether the operation reads the listed and the fixed operand only at
        the evaluated state, as one of them does.  With ``on``, row x of the
        table maps each vid to the output's vid at state x where the listed
        operand holds that vid: one output of ``outputs`` over V states of the
        step's own, where the listed operand holds vid u at state u, and the
        fixed one its value at x at every state with ``off``, else itself
        whole.  The table is the sum over x of V**(n-1-x) times row x read at
        the listed cid's x-th digit, built by Horner's rule in canonical
        order.  Else a composition's right operand is listed, and column u,
        read once per plan and operation ``name``, maps each right cid to the
        output's vid where the left operand holds vid u: one output per right
        cid, over V states where the left one holds vid u at state u.  The
        table is the sum over x of V**(n-1-x) times the column of the fixed
        cid's x-th digit."""
        values, coalgs, n, columns = self.values, self.coalgs, self.n, self._cols
        at, fixed = positions if left else positions[::-1]
        kept = self._keep({})  # fixed cid -> its table

        def op(vals):
            f = vals[fixed]
            table = kept.get(f)
            if table is None:
                kept.clear()
                V, g = len(values), coalgs[f]
                every = tuple(range(V))
                if on:
                    if not off:  # a composition's right operand: one row for every state
                        rows = [outputs((every, g))] * n
                    elif left:
                        rows = [outputs((every, (w,) * V)) for w in g]
                    else:
                        rows = [outputs(((w,) * V, every)) for w in g]
                    table = [0]
                    for row in rows:
                        table = [t * V + r for t in table for r in row]
                else:  # a composition's right operand: one column per left vid
                    cols = columns[name]  # left vid -> the output vid against each right cid
                    if not cols:
                        cols[:] = map(list, zip(*[outputs((every, h)) for h in coalgs]))
                    table = cols[g[0]]
                    for w in g[1:]:
                        table = [t * V + r for t, r in zip(table, cols[w])]
                kept[f] = table
            ids = vals[at]
            if type(ids) is range:  # slot 1's block list: a slice of the table
                return table[ids.start : ids.stop]
            return list(map(table.__getitem__, ids))

        return op

    def _test(self, node: Test) -> tuple[int, int]:
        spec = self.config.test(node.test)
        spec.check_kind(self.config.kind)
        arg = self._compile(node.arg)
        preds, fops, truth = self.preds, self.fops, self.config.truth
        vid, intern = self.vid, self.intern

        table = self._table(
            lambda u: intern(tuple(map(vid, apply_test(spec, preds[u], fops, truth))))
        )

        def test(A):
            return list(map(table.__getitem__, A))

        return self._step([arg], test)

    def _table(self, fill=None) -> dict:
        """A new table, filled by ``fill`` where given, to be emptied by
        ``forget``."""
        return self._keep({} if fill is None else _Table(fill))

    def _keys(self, args) -> tuple[int, int]:
        """A step zipping the argument ids into lifting keys, one id tuple
        per position."""
        positions = tuple(pos for pos, _ in args)
        got = self._pos.get(positions)
        if got is None:
            got = self._pos[positions] = self._step(args, _zipped)
        return got


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
        return plan.decode(plan.vals[pos][0])

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
