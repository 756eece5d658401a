"""Predicate liftings, models and the formula evaluator.

A model fixes a carrier size, a logic configuration (functor kind, truth and
structure algebras, the lifting/operation/test catalogue), coalgebras for the
atomic actions and a propositional valuation.  Formulas and actions are
compiled once into a Plan, a flat list of steps with one step per distinct
subterm, which then runs over any number of models; an EvalSession holds one
plan and the values it has computed so far for one model.  A reduction-rule
template is a formula over variables and action slots; it compiles the same
way into a _TemplatePlan, which the rule-soundness sweep runs on predicate ids
over a whole space of variable assignments.  Both plans resolve connectives
through ``connective``.

Two algebras show up because the threshold logic evaluates formulas in the
two-element Boolean algebra over structures labelled in a larger chain; in
every other configuration they coincide.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from operator import add, getitem, mul
from typing import Mapping, Sequence

from .actions import (
    Coalgebra,
    DEFAULT_ITERATE_CAP,
    OperationSpec,
    TestSpec,
    apply_op,
    apply_test,
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
    configuration and runs over any model of it.
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


class _TemplatePlan:
    """Rule templates compiled for one sweep and evaluated on small integers.

    A predicate is its id, its index in ``predicate_space(m, n)``; a
    coalgebra is its cid, its index in ``coalgs`` (see ``intern``).  Each
    distinct subterm becomes one step that maps a sigma-list (variable
    assignments, in the sweep's canonical order) to the list of its ids.
    Connectives and liftings read id tables whose entries are computed on
    first use: an extra connective keys on its argument id, a binary one on
    both, a lifting on the cid in its slot and its argument ids combined
    into one key.  A lifting entry is assembled from the lifted truth values
    of the coalgebra's FValues, each computed once by the lifting's kernel
    and kept per FValue, since sampled coalgebras seldom recur but their
    FValues do.  ``forget`` drops the interned coalgebras and all entries,
    so a long sampled sweep can bound its memory.  Steps fall into groups
    by what they read: 0 the variables only, 1 also a slot other than the
    first, 2 the first slot.  Sweeps move slot 1 in their innermost loop, so
    only group 2 reruns there.
    """

    def __init__(self, config: LogicConfig, n: int):
        self.config = config
        self.n = n
        self.preds = predicate_space(config.truth.m, n)
        self.index = predicate_index(config.truth.m, n)
        self.P = len(self.preds)
        self.coalgs: list = []  # cid -> coalgebra
        self.cids: list[int] = []  # slot - 1 -> cid, set by the sweep
        self.vals: list = []  # step position -> id list
        self.groups: list[list] = [[], [], []]  # (position, step), run order
        self._cid: dict = {}
        self._leaves: list = []  # (position, variable index or None, constant id)
        self._pos: dict = {}  # node -> (position, group)
        # lifting id -> (kernel, arity, {cid: {key: id}}, {key: {value: truth value}})
        self._lifts: dict = {}

    def intern(self, coalg) -> int:
        cid = self._cid.get(coalg)
        if cid is None:
            cid = self._cid[coalg] = len(self.coalgs)
            self.coalgs.append(coalg)
        return cid

    def forget(self) -> None:
        """Drop the interned coalgebras and every lifting table entry."""
        self._cid.clear()
        self.coalgs.clear()
        for _, _, rows, by_value in self._lifts.values():
            rows.clear()
            by_value.clear()

    def compile(self, body: Formula, n_slots: int, n_vars: int) -> int:
        """The position of ``body``'s step, compiling its new subterms."""
        self.cids.extend([0] * (n_slots - len(self.cids)))
        return self._compile(body, n_slots, n_vars)[0]

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

    def lifter(self, lid: str):
        """``(cid, keys) -> ids``: lifting ``lid`` at one coalgebra."""
        kernel, arity, rows, by_value = self._lifting(lid)
        preds, P, n, index = self.preds, self.P, self.n, self.index

        def fill(cid, keys):
            table, coalg = rows[cid], self.coalgs[cid]
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

        def lift(cid, keys):
            try:
                return list(map(rows[cid].__getitem__, keys))
            except KeyError:
                return fill(cid, keys)

        return lift

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

    def _lifting(self, lid: str):
        got = self._lifts.get(lid)
        if got is None:
            spec = self.config.lifting(lid)
            kernel = lifting_kernel(spec, self.config)
            got = self._lifts[lid] = (
                kernel, spec.arity, defaultdict(dict), defaultdict(dict)
            )
        return got

    def _compile(self, node, n_slots: int, n_vars: int) -> tuple[int, int]:
        got = self._pos.get(node)
        if got is not None:
            return got
        if isinstance(node, Var):
            if not 1 <= node.index <= n_vars:
                raise InvalidParameter(
                    f"template variable w{node.index} is outside w1..w{n_vars}"
                )
            got = self._add(0, None)
            self._leaves.append((got[0], node.index - 1, None))
        elif isinstance(node, Conn):
            got = self._conn(node, n_slots, n_vars)
        elif isinstance(node, Modal):
            got = self._modal(node, n_slots, n_vars)
        else:
            raise InvalidParameter(f"not a template node: {node!r}")
        self._pos[node] = got
        return got

    def _conn(self, node: Conn, n_slots: int, n_vars: int) -> tuple[int, int]:
        index, preds = self.index, self.preds
        arity, interp = connective(self.config.truth, node.symbol, len(node.args))
        if arity == 0:
            got = self._add(0, None)
            self._leaves.append((got[0], None, index[(interp,) * self.n]))
            return got
        args = [self._compile(a, n_slots, n_vars) for a in node.args]
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

    def _modal(self, node: Modal, n_slots: int, n_vars: int) -> tuple[int, int]:
        slot = node.action
        if slot not in range(1, n_slots + 1):
            raise InvalidParameter(f"template slot {slot!r} is outside 1..{n_slots}")
        arity = self._lifting(node.lifting)[1]
        if len(node.args) != arity:
            raise ArityMismatch(
                f"lifting {node.lifting!r} expects {arity} predicate(s), "
                f"got {len(node.args)}"
            )
        args = [self._compile(a, n_slots, n_vars) for a in node.args]
        keys, group = args[0] if arity == 1 else self._keys(args)
        lift, cids, s = self.lifter(node.lifting), self.cids, slot - 1

        def modal(vals):
            return lift(cids[s], vals[keys])

        return self._add(max(group, 2 if slot == 1 else 1), modal)

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
