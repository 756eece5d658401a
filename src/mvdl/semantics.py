"""Predicate liftings, models and the formula evaluator.

A model fixes a carrier size, a logic configuration (functor kind, truth and
structure algebras, the lifting/operation/test catalogue), coalgebras for the
atomic actions and a propositional valuation.  Where one model at a time is
evaluated (an EvalSession, a sampled entailment sweep), formulas and actions
are compiled once into a Plan, a flat list of steps with one step per
distinct subterm, which then runs over any number of models; an EvalSession
holds one plan and the values it has computed so far for one model.

The exhaustive sweeps run a _TemplatePlan instead, on predicate and
coalgebra ids over a whole space of variable assignments at once.  Both
sides of a reduction rule are formulas over variables and action slots (the
template, and the lifting applied to the operation over slots 1..arity or
to the test of variable 1); a formula under bounded entailment is the same
kind of object, its propositions playing the variables and its atomic
actions the slots.  So the rule-soundness sweep and the exhaustive
entailment sweep share that plan and its slot loop, ``_TemplatePlan.sweep``.
Both plans resolve connectives through ``connective``.

Two algebras show up because the threshold logic evaluates formulas in the
two-element Boolean algebra over structures labelled in a larger chain; in
every other configuration they coincide.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat, starmap
from operator import add, getitem, mul
from typing import Mapping, Sequence

from .actions import (
    COMPOSITION_VARIANTS,
    Coalgebra,
    DEFAULT_ITERATE_CAP,
    OperationSpec,
    TestSpec,
    apply_op,
    apply_test,
    composition_map,
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
        validate: bool = True,
    ):
        self.n = n
        self.config = config
        self.atoms = {k: tuple(v) for k, v in atoms.items()}
        self.valuation = {k: tuple(v) for k, v in valuation.items()}
        self.fops = config.fops(n)
        if validate:
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


class Plan:
    """Formulas and actions compiled into one flat, post-ordered step list.

    Each distinct subterm becomes one step, placed after the steps of its
    subterms, so running the steps in order over a model fills a value list
    in which every subterm's value sits at its step index.  Liftings,
    operations and tests are looked up and kind/arity-checked when a step
    is compiled; running a step only computes.  A plan belongs to one
    configuration and runs over any model of it, at any carrier size, so it
    serves where models share little: an EvalSession, and the sampled
    entailment sweep, whose models seldom share a valuation.
    """

    def __init__(self, config: LogicConfig, iterate_cap: int = DEFAULT_ITERATE_CAP):
        self.config = config
        self.iterate_cap = iterate_cap
        self.steps: list = []
        self._index: dict = {}  # node -> step index, in step order

    def compile(self, node) -> int:
        """The step index of ``node``, appending steps for its new subterms."""
        got = self._index.get(node)
        if got is None:
            step = self._step(node)
            got = self._index[node] = len(self.steps)
            self.steps.append(step)
        return got

    def truncate(self, size: int) -> None:
        """Drop every step from index ``size`` on."""
        del self.steps[size:]
        while len(self._index) > size:
            self._index.popitem()

    def run(self, model: "Model", values: list) -> list:
        """Extend ``values`` over ``model`` by the steps it does not cover yet.

        A step reads only the model's ``n``, ``fops``, ``atoms`` and
        ``valuation``, so any object carrying those four will do.
        """
        steps = self.steps
        for i in range(len(values), len(steps)):
            values.append(steps[i](values, model))
        return values

    def _step(self, node):
        config = self.config
        if isinstance(node, Prop):
            name = node.name

            def prop(values, model):
                try:
                    return model.valuation[name]
                except KeyError:
                    raise UnknownIdentifier(
                        f"proposition {name!r} is not interpreted"
                    ) from None

            return prop
        if isinstance(node, Conn):
            return self._conn_step(node)
        if isinstance(node, Modal):
            spec = config.lifting(node.lifting)
            kernel = lifting_kernel(spec, config)
            if len(node.args) != spec.arity:
                raise ArityMismatch(
                    f"lifting {spec.id!r} expects {spec.arity} predicate(s), "
                    f"got {len(node.args)}"
                )
            act = self.compile(node.action)
            args = [self.compile(a) for a in node.args]

            def modal(values, model):
                return kernel([values[i] for i in args], values[act], model.n)

            return modal
        if isinstance(node, Atomic):
            name = node.name

            def atomic(values, model):
                try:
                    return model.atoms[name]
                except KeyError:
                    raise UnknownAtom(
                        f"atomic action {name!r} is not interpreted"
                    ) from None

            return atomic
        if isinstance(node, Op):
            spec = config.op(node.op)
            spec.check_kind(config.kind)
            if len(node.args) != spec.arity:
                raise IncompatibleVariant(
                    f"operation {spec.id!r} has arity {spec.arity}, "
                    f"got {len(node.args)} actions"
                )
            args = [self.compile(a) for a in node.args]
            cap = self.iterate_cap

            def op(values, model):
                return apply_op(spec, [values[i] for i in args], model.fops, cap=cap)

            return op
        if isinstance(node, Test):
            spec = config.test(node.test)
            spec.check_kind(config.kind)
            arg = self.compile(node.arg)
            truth = config.truth

            def test(values, model):
                return apply_test(spec, values[arg], model.fops, truth)

            return test
        raise InvalidParameter(f"not a formula or action node: {node!r}")

    def _conn_step(self, node: Conn):
        arity, table = connective(self.config.truth, node.symbol, len(node.args))
        if arity == 0:

            def constant(values, model):
                return (table,) * model.n

            return constant
        args = [self.compile(a) for a in node.args]
        if arity == 1:
            lookup = table.__getitem__
            (i,) = args

            def extra(values, model):
                return tuple(map(lookup, values[i]))

            return extra
        i, j = args

        def binary(values, model):
            return tuple([table[u][v] for u, v in zip(values[i], values[j])])

        return binary


def assignments(P: int, k: int) -> list[list[int]]:
    """The ids of k variables over all P**k assignments, in the order of
    ``product(range(P), repeat=k)``: one list per variable."""
    return [[key // P ** (k - 1 - i) % P for key in range(P**k)] for i in range(k)]


class _TemplatePlan:
    """Rule templates and formulas compiled for one sweep and evaluated on
    small integers.

    A predicate is its id, its index in ``predicate_space(m, n)``; a
    coalgebra is its cid, its index in ``coalgs`` (see ``intern``).  A
    template's leaves are variables and its modalities hold action slots; a
    formula compiles the same way, its propositions playing the variables
    and its atomic actions the slots.  Each distinct subterm becomes one
    step.  A formula step maps a sigma-list (variable assignments, in the
    sweep's canonical order) to the list of its ids; a slot or operation
    step gives one cid, and a test step a cid list, one cid per assignment,
    as does an operation with such an argument.  Connectives, liftings,
    operations and tests read id tables whose entries are computed on first
    use: an extra connective keys on its argument id, a binary one on both,
    a lifting on the cid of its action and its argument ids combined into
    one key, a test on its argument's id.  A lifting entry is assembled from
    the lifted truth values of the coalgebra's FValues, each computed once
    by the lifting's kernel and kept per FValue, since sampled coalgebras
    seldom recur but their FValues do.  An operation keeps its outputs by
    operand cids only where those are few (one operand, or a test's cid
    list); a pair of slots, of which there are C**2, is computed afresh, a
    composition against the map of its right operand, which it keeps while
    that operand stays.  ``forget`` drops the interned coalgebras and every
    table that holds cids, so a long sampled sweep can bound its memory.
    Steps fall into groups by what they read: 0 the variables only, 1 also
    a slot other than the first, 2 the first slot.  ``sweep`` moves slot 1
    in its innermost loop, so only group 2 reruns there.
    """

    def __init__(self, config: LogicConfig, n: int):
        self.config = config
        self.n = n
        self.fops = config.fops(n)
        self.preds = predicate_space(config.truth.m, n)
        self.index = predicate_index(config.truth.m, n)
        self.P = len(self.preds)
        self.coalgs: list = []  # cid -> coalgebra
        self.cids: list[int] = []  # slot - 1 -> cid, set by the sweep
        self.vals: list = []  # step position -> ids
        self.groups: list[list] = [[], [], []]  # (position, step), run order
        self._cid: dict = {}
        self._leaves: list = []  # (position, variable index or None, constant id)
        self._pos: dict = {}  # node -> (position, group)
        self._each: set = set()  # positions of actions valued as cid lists
        self._slots: dict = {}  # slot number or atom name -> slot - 1
        self._vars: dict = {}  # variable number or proposition name -> variable
        self._lifts: dict = {}  # lifting id -> (arity, {cid: {key: id}}, fill)
        self._tables: list = [self._cid]  # everything forget empties
        cid_of, coalgs = self._cid, self.coalgs

        def intern(coalg) -> int:
            """The cid of ``coalg``, interning it on first sight."""
            cid = cid_of.get(coalg)
            if cid is None:
                cid = cid_of[coalg] = len(coalgs)
                coalgs.append(coalg)
            return cid

        # steps hold no reference to the plan, so a finished sweep's plan is
        # freed at once rather than by the cycle collector
        self.intern = intern

    def forget(self) -> None:
        """Drop the interned coalgebras and every table entry keyed on them."""
        self.coalgs.clear()
        for table in self._tables:
            table.clear()

    def compile(self, body: Formula, slots: int | Sequence, variables: int | Sequence) -> int:
        """The position of ``body``'s step, compiling its new subterms.

        A template passes how many action slots and variables it has; a
        formula passes the names of its atomic actions, slot 1 first, and of
        its propositions, in the order of the sweep's variable lists."""
        if isinstance(slots, int):
            slots, variables = range(1, slots + 1), range(1, variables + 1)
        self._slots = {key: s for s, key in enumerate(slots)}
        self._vars = {key: v for v, key in enumerate(variables)}
        self.cids.extend([0] * (len(self._slots) - len(self.cids)))
        return self._compile(body)[0]

    def load(self, var_lists: list, size: int) -> None:
        """Take the variables' sigma-lists, all of length ``size``, and run
        group 0."""
        vals = self.vals
        for pos, var, const in self._leaves:
            vals[pos] = var_lists[var] if var is not None else [const] * size
        self.run(0)

    def run(self, group: int) -> None:
        vals = self.vals
        for pos, step in self.groups[group]:
            vals[pos] = step(vals)

    def sweep(self, coalgs: int):
        """Run groups 1 and 2 at every assignment of the cids below
        ``coalgs`` to the slots, in ``product`` order with slot 1 fastest,
        and yield ``cids`` after each; group 1 reruns only when a slot other
        than the first moves.  With no slots there is one assignment."""
        cids, vals, inner = self.cids, self.vals, self.groups[2]
        if not cids:
            yield cids
            return
        for outer in product(range(coalgs), repeat=len(cids) - 1):
            cids[1:] = outer[::-1]
            self.run(1)
            for cid in range(coalgs):
                cids[0] = cid
                for pos, step in inner:
                    vals[pos] = step(vals)
                yield cids

    def eval(self, body, gammas, sigmas) -> tuple:
        """The row of ``body`` at one coalgebra tuple and one assignment."""
        root = self.compile(body, len(gammas), len(sigmas))
        for s, gamma in enumerate(gammas):
            self.cids[s] = self.intern(tuple(gamma))
        self.load([[self.index[tuple(sigma)]] for sigma in sigmas], 1)
        self.run(1)
        self.run(2)
        return self.preds[self.vals[root][0]]

    # -- compilation ------------------------------------------------------

    def _add(self, group: int, step) -> tuple[int, int]:
        pos = len(self.vals)
        self.vals.append(None)
        if step is not None:
            self.groups[group].append((pos, step))
        return pos, group

    def _table(self) -> dict:
        table: dict = {}
        self._tables.append(table)
        return table

    def _lifting(self, lid: str):
        got = self._lifts.get(lid)
        if got is None:
            spec = self.config.lifting(lid)
            kernel, arity = lifting_kernel(spec, self.config), spec.arity
            rows, by_value = defaultdict(dict), defaultdict(dict)
            self._tables += [rows, by_value]
            preds, P, n, index, coalgs = self.preds, self.P, self.n, self.index, self.coalgs

            def fill(cid, keys):
                table, coalg = rows[cid], coalgs[cid]
                for key in keys:
                    if key not in table:
                        known = by_value[key]
                        row = []
                        for value in coalg:
                            got = known.get(value)
                            if got is None:
                                args, rest = [], key
                                for _ in range(arity):
                                    rest, digit = divmod(rest, P)
                                    args.append(preds[digit])
                                (got,) = kernel(args[::-1], (value,), n)
                                known[value] = got
                            row.append(got)
                        row = tuple(row)
                        if row not in index:
                            raise InvalidParameter(
                                f"lifting {lid!r} yields {row}, outside the truth algebra"
                            )
                        table[key] = index[row]
                return list(map(table.__getitem__, keys))

            got = self._lifts[lid] = (arity, rows, fill)
        return got

    def _compile(self, node) -> tuple[int, int]:
        """A formula node's (position, group)."""
        got = self._pos.get(node)
        if got is not None:
            return got
        if isinstance(node, (Var, Prop)):
            got = self._add(0, None)
            self._leaves.append((got[0], self._variable(node), None))
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

            got = self._pos["slot", s] = self._add(2 if s == 0 else 1, slot)
        return got

    def _conn(self, node: Conn) -> tuple[int, int]:
        index, preds = self.index, self.preds
        arity, interp = connective(self.config.truth, node.symbol, len(node.args))
        if arity == 0:
            got = self._add(0, None)
            self._leaves.append((got[0], None, index[(interp,) * self.n]))
            return got
        args = [self._compile(a) for a in node.args]
        group = max(g for _, g in args)
        if arity == 1:
            ((a, _),) = args
            table = {}

            def extra(vals):
                A = vals[a]
                try:
                    return list(map(table.__getitem__, A))
                except KeyError:
                    for u in A:
                        if u not in table:
                            table[u] = index[tuple(interp[v] for v in preds[u])]
                    return list(map(table.__getitem__, A))

            return self._add(group, extra)
        (a, _), (b, _) = args
        rows = defaultdict(dict)

        def binary(vals):
            A, B = vals[a], vals[b]
            try:
                return list(map(getitem, map(rows.__getitem__, A), B))
            except KeyError:
                for u, v in zip(A, B):
                    row = rows[u]
                    if v not in row:
                        pointwise = map(getitem, map(interp.__getitem__, preds[u]), preds[v])
                        row[v] = index[tuple(pointwise)]
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
        if act not in self._each:

            def modal(vals):
                cid = vals[act]
                try:
                    return list(map(rows[cid].__getitem__, vals[keys]))
                except KeyError:
                    return fill(cid, vals[keys])

        else:  # one cid per position

            def modal(vals):
                C, K = vals[act], vals[keys]
                try:
                    return list(map(getitem, map(rows.__getitem__, C), K))
                except KeyError:
                    for c, key in zip(C, K):
                        fill(c, (key,))
                    return list(map(getitem, map(rows.__getitem__, C), K))

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
            right = self._table()  # the last right operand's cid -> its map

            def output(c1, c2):
                after = right.get(c2)
                if after is None:
                    right.clear()
                    after = right[c2] = lru_cache(None)(composition_map(fops, variant, coalgs[c2]))
                return intern(tuple(map(after, coalgs[c1])))

        else:

            def output(*key):
                return intern(apply_op(spec, [coalgs[c] for c in key], fops))

        if len(args) == 1 or any(each):
            # memoised by operand cids where these are few: one operand, or
            # test outputs; a pair of slots has C**2
            table, compute = self._table(), output

            def output(*key):
                got = table.get(key)
                if got is None:
                    got = table[key] = compute(*key)
                return got

        if any(each):  # one cid per position, a single cid standing for all

            def op(vals):
                cols = [vals[i] if e else repeat(vals[i]) for i, e in zip(positions, each)]
                return list(starmap(output, zip(*cols)))

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

    def _test(self, node: Test) -> tuple[int, int]:
        spec = self.config.test(node.test)
        spec.check_kind(self.config.kind)
        a, group = self._compile(node.arg)
        table, preds, fops, truth = self._table(), self.preds, self.fops, self.config.truth
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
        """A step combining argument ids into lifting keys, base P, first
        argument most significant: the order of ``product(preds, repeat=k)``."""
        positions = tuple(pos for pos, _ in args)
        got = self._pos.get(positions)
        if got is None:
            first, rest, P = positions[0], positions[1:], self.P

            def keys(vals):
                K = vals[first]
                for pos in rest:
                    K = list(map(add, map(mul, K, repeat(P)), vals[pos]))
                return K

            got = self._pos[positions] = self._add(max(g for _, g in args), keys)
        return got


class EvalSession:
    """Evaluates formulas and actions over one model through one plan.

    ``eval`` and ``interpret`` compile their argument into the session's
    plan and run only the steps no earlier call has run, so each subterm is
    computed at most once per session.  Distinct sessions may run
    concurrently; a single session must not be shared across threads.
    """

    def __init__(self, model: Model, iterate_cap: int = DEFAULT_ITERATE_CAP):
        self.model = model
        self.plan = Plan(model.config, iterate_cap)
        self.values: list = []

    def eval(self, formula: Formula) -> Predicate:
        return self._value(formula)

    def interpret(self, action) -> Coalgebra:
        if not isinstance(action, (Atomic, Op, Test)):
            raise InvalidParameter(f"not an action node: {action!r}")
        return self._value(action)

    def _value(self, node):
        plan, values = self.plan, self.values
        size = len(values)
        try:
            i = plan.compile(node)
            plan.run(self.model, values)
        except BaseException:
            # leave no failed step pending for the next call to trip on
            plan.truncate(size)
            del values[size:]
            raise
        return values[i]


def eval_formula(model: Model, formula: Formula) -> Predicate:
    """One-shot evaluation with a fresh session."""
    return model.session().eval(formula)


def interpret_action(model: Model, action, session: EvalSession | None = None) -> Coalgebra:
    """Standard-model interpretation of an action term."""
    return (session or model.session()).interpret(action)
