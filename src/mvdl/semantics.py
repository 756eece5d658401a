"""Predicate liftings, models and the formula evaluator.

A model fixes a carrier size, a logic configuration (functor kind, truth and
structure algebras, the lifting/operation/test catalogue), coalgebras for the
atomic actions and a propositional valuation.  Formulas and actions are
compiled once into a Plan, a flat list of steps with one step per distinct
subterm, which then runs over any number of models; an EvalSession holds one
plan and the values it has computed so far for one model.

Two algebras show up because the threshold logic evaluates formulas in the
two-element Boolean algebra over structures labelled in a larger chain; in
every other configuration they coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .syntax import Atomic, Conn, Formula, Modal, Op, Prop, Signature, Test

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


_BINARY_TABLES = {
    "/\\": "meet_table",
    "\\/": "join_table",
    "*": "tensor_table",
    "->": "impl_table",
}


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
        """Extend ``values`` over ``model`` by the steps it does not cover yet."""
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
        truth, sym = self.config.truth, node.symbol
        if sym in ("0", "1") or sym in truth.constants:
            c = 0 if sym == "0" else truth.top if sym == "1" else truth.constants[sym]

            def constant(values, model):
                return (c,) * model.n

            return constant
        args = [self.compile(a) for a in node.args]
        if sym in _BINARY_TABLES:
            arity = 2
        elif sym in truth.extras:
            arity = 1
        else:
            raise UnknownIdentifier(f"connective {sym!r} is not interpreted")
        if len(args) != arity:
            raise ArityMismatch(
                f"connective {sym!r} expects {arity} argument(s), got {len(args)}"
            )
        if arity == 1:
            lookup = truth.extras[sym].__getitem__
            (i,) = args

            def extra(values, model):
                return tuple(map(lookup, values[i]))

            return extra
        table = getattr(truth, _BINARY_TABLES[sym])
        i, j = args

        def binary(values, model):
            return tuple([table[u][v] for u, v in zip(values[i], values[j])])

        return binary


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
