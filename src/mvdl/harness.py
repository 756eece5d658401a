"""Desk-scale machine checks: morphisms, safety, invariance, separation,
reduction-rule soundness, one-step witnesses and bounded entailment.

Verdict vocabulary: "holds" when the stated finite configuration was swept
completely, "holds-up-to-bound" when the claim quantifies over carriers or
the sweep sampled, "fails" with a replayable counterexample otherwise.
First counterexamples are reported in canonical enumeration order, so
identical inputs give identical reports.

Every sweep of operations works on one id layer: a functor value is its
vid, its index in order of first sight (or in its enumeration, where an
exhaustive sweep interns the enumeration first), and a coalgebra the tuple
of its states' vids.  Operation outputs come from one function,
``semantics.op_outputs``, over one-step tables keyed by vid, whether a
plan or a safety sweep asks; FValues are decoded only for a
counterexample or a session's result.

Rule-soundness sweeps and bounded entailment compile what they compare (a
rule's two sides; Gamma and phi) into one ``semantics.Plan`` and read
their cases from one driver, ``_batches``: it runs the cases in the plan
one batch at a time (a block list of ``Plan.sweep``, which sets up the
plan's canonical case space within the budget, when exhaustive; drawn
cases when sampled) and yields the compared ids, one per block, each
block decoded by ``Plan.block`` and each case by ``Plan.case``.  Each
checker is one loop, one comparison per block and one counterexample
builder over those batches.  Rules of one shape (slots and variables)
share one plan and one sweep, so a registry sweeps each shape once, and
the registry keeps that plan, reset, for its next sweep at the same size
and mode; ``verify_reduction_rule`` is a group of one, compiled afresh.

A safety sweep runs one loop per carrier pair on ids of its own, one vid
layer per side (``_SafetyIds``); Ff is one vid list per map f.  Its
premises are every joint morphism square in canonical order (exhaustive
mode, which interns the enumerations of FX and FY first) or drawn ones
(random mode, each source operand keyed by the integer its draws spell).
An operand that the operation reads only at the evaluated state
(``actions.LOCAL_OPERANDS``) is a constant coalgebra on the source side of
an exhaustive sweep, and is computed at its first candidate only on the
target side: the premise forces its value on the image of f.  Only
``check_safety``, which picks the form and counts the budget, and
``_safety_squares`` read that table.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, islice, product
from math import prod
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .actions import LOCAL_OPERANDS, OperationSpec, TestSpec, apply_test
from .algebra import Algebra
from .errors import (
    BudgetExceeded,
    InvalidParameter,
    NonlinearAlgebra,
    PreconditionViolated,
    TagMismatch,
    UnsupportedKind,
)
from . import functors
from .functors import Kind, FunctorOps, functor_ops, int_drawer, predicate_drawer, predicate_space
from .jsonio import fvalue_to_json, model_to_json
from .semantics import (
    LiftingSpec,
    LogicConfig,
    Model,
    Plan,
    _Interner,
    _Table,
    lifting_kernel,
    op_outputs,
)
from .syntax import (
    Conn,
    Formula,
    Modal,
    Op,
    Test,
    Var,
    atoms_of,
    formula_actions,
    props_of,
    render,
)

DEFAULT_SEED = 0xC0A1
DEFAULT_SWEEP_BUDGET = 1_000_000
# a sampled rule or entailment sweep runs its trials in batches of at most
# this many, each plan step once per batch
SAMPLED_BATCH = 128


# the status verify_registry gives a rule whose sweep exceeds the budget
OVER_BUDGET = "budget-exceeded"


@dataclass
class Verdict:
    status: str  # "holds" | "fails" | "holds-up-to-bound" | OVER_BUDGET
    cases: int
    seconds: float
    counterexample: dict | None = None
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("holds", "holds-up-to-bound")


def _verdict(status: str, cases: int, t0: float, counterexample=None, **detail) -> Verdict:
    if status != "fails" and cases < 1:
        # a sweep that checked nothing has shown nothing
        raise InvalidParameter(f"the sweep checked no case, so it cannot report {status!r}")
    return Verdict(status, cases, time.perf_counter() - t0, counterexample, detail)


def _check_sweep(mode: str, trials: int, max_n: int = 1) -> None:
    """Reject an unknown mode and sweep parameters that would check no case."""
    if mode not in ("exhaustive", "random"):
        raise InvalidParameter(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if max_n < 1:
        raise InvalidParameter(f"max_n must be at least 1, got {max_n}")
    if mode == "random" and trials < 1:
        raise InvalidParameter(f"trials must be at least 1 in random mode, got {trials}")


# -- coalgebra morphisms --------------------------------------------------


def is_morphism(
    f: Sequence[int],
    gamma: Sequence,
    gamma2: Sequence,
    kind: Kind,
    alg: Algebra,
) -> bool:
    """Does Ff . gamma = gamma2 . f hold state by state?"""
    n, n2 = len(gamma), len(gamma2)
    if len(f) != n:
        raise TagMismatch("map length differs from source carrier")
    if any(not (0 <= y < n2) for y in f):
        raise TagMismatch("map targets outside the target carrier")
    fops = functor_ops(kind, n, alg)
    ft = tuple(f)
    return all(fops.map(ft, n2, gamma[x]) == gamma2[ft[x]] for x in range(n))


# -- safety ---------------------------------------------------------------


def check_safety(
    target: OperationSpec | TestSpec,
    config: LogicConfig,
    max_n: int = 2,
    budget: int = DEFAULT_SWEEP_BUDGET,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Search joint morphisms f: X -> Y and refute preservation by ``target``.

    Carrier pairs range over n, n' <= max_n.  When f is surjective the target
    coalgebras are forced; otherwise the unconstrained states are enumerated
    (exhaustive mode, ``_safety_squares``) or sampled (random mode,
    ``_safety_draws``, ``trials // max_n**2 + 1`` draws per pair, each
    source operand drawn whole as one integer; ``detail["drawn"]`` counts
    the draws, of which those whose sources force two values on one target
    state are no case).  Both modes check their premises in one loop on
    ids, ``_safety_pair``.

    Exhaustive mode sweeps the local form: an operand in
    ``actions.LOCAL_OPERANDS`` ranges over the V constant source coalgebras
    only, every other one over every consistent one.  It is exact: the
    operation reads a local operand at x only through its value there, and
    the constant coalgebra of that value is a premise too.  ``cases`` still
    counts every morphism square.  The target operand tuples the sweep will
    compute (``_safety_work``, summed over the carrier pairs) are checked
    against ``budget`` first, after a closed-form lower bound on them that
    needs no Ff (refused as "at least" that many when it already exceeds
    ``budget``), and ``detail["evaluated"]`` counts those it did.  When a
    carrier pair fails and the full form, counted the same way with no
    constant operand, fits ``budget``, that pair is swept again in it,
    which reports the canonical first counterexample and its case count;
    otherwise the local form's first counterexample is reported with
    ``detail["form"] = "local"``.  A test target is always swept
    exhaustively (``_check_test_safety``).
    """
    t0 = time.perf_counter()
    _check_sweep(mode, trials, max_n)
    if isinstance(target, TestSpec):
        return _check_test_safety(target, config, max_n, budget, t0)
    target.check_kind(config.kind)
    pairs = [_SafetyIds(*map(config.fops, n)) for n in product(range(1, max_n + 1), repeat=2)]
    try:
        sampled, local = {}, LOCAL_OPERANDS[target.variant]
        if mode == "exhaustive":
            spaces = {n: list(config.fops(n).enumerate(budget)) for n in range(max_n, 0, -1)}
            work = partial(_safety_work, target.arity, spaces, lazy=local)
            # sum over carrier pairs of n'**n * V**arity: every map's work with
            # c_f >= V and free_f >= 1, exact when every operand is local, and
            # known before any Ff is computed
            sizes = range(1, max_n + 1)
            total = sum(b**a * len(spaces[a]) ** target.arity for a in sizes for b in sizes)
            least = "" if len(local) == target.arity else "at least "
            if total <= budget and least:
                total, least = sum(work(ids, local) for ids in pairs), ""
            if total > budget:
                msg = f"{least}{total} target operand tuples up to n={max_n} exceed budget {budget}"
                raise BudgetExceeded(f"{msg}; random mode is available", count=total)
            premises = partial(_safety_squares, target, spaces=spaces, local=local)
        else:
            rng, sampled, missed = random.Random(seed), {"trials": trials, "seed": seed}, [0]
            per_pair = trials // (max_n * max_n) + 1
            premises = partial(_safety_draws, target, rng=rng, trials=per_pair, missed=missed)
        cases = evaluated = 0
        for ids in pairs:
            checked, computed, counter = _safety_pair(target, ids, premises(ids))
            form = {}
            if counter is not None and not sampled and local:
                if sum(work(other, ()) for other in pairs) <= budget:
                    squares = _safety_squares(target, ids, spaces)
                    checked, more, counter = _safety_pair(target, ids, squares)
                    computed += more
                else:
                    form = {"form": "local"}
            cases += checked
            evaluated += computed
            counts = {"evaluated": evaluated}
            if sampled:
                counts = {**sampled, "drawn": cases + missed[0]}
            if counter is not None:
                n = (ids.fops_src.n, ids.fops_tgt.n)
                return _verdict(
                    "fails", cases, t0, counter, target=target.id, n=n, **counts, **form
                )
            ids.clear()
        return _verdict(
            "holds-up-to-bound", cases, t0, None, target=target.id, max_n=max_n, mode=mode,
            **counts,
        )
    finally:  # a verdict or an error keeps none of the sweep's tables
        for ids in pairs:
            ids.clear()


def _safety_counter(ids: _SafetyIds, f, gammas, targets, x: int) -> dict:
    """The failing square at state x, its operands decoded from vids."""
    kind = ids.fops_src.kind
    decode = lambda vals, coalgs: [[fvalue_to_json(kind, vals[v]) for v in g] for g in coalgs]
    return {
        "f": list(f),
        "gammas": decode(ids.vals_src, gammas),
        "gammas_target": decode(ids.vals_tgt, targets),
        "state": x,
    }


class _SafetyIds:
    """The ids of one carrier pair's safety sweep, given on first sight: a
    value's vid is its index in ``vals_src`` or ``vals_tgt``, and a
    coalgebra on either side is the tuple of its states' vids.  ``table``
    makes the one-step tables that operation outputs are read from, and a
    sampled sweep's tables keyed by the integers its draws spell; ``clear``
    drops them with the ids."""

    def __init__(self, fops_src: FunctorOps, fops_tgt: FunctorOps):
        self.fops_src, self.fops_tgt = fops_src, fops_tgt
        self.vals_src, self.vals_tgt, self._ff = [], [], {}
        index = [_Interner(self.vals_src), _Interner(self.vals_tgt)]
        self.src, self.tgt = (table.__getitem__ for table in index)
        self._tables = [*index, self.vals_src, self.vals_tgt, self._ff]

    def clear(self) -> None:
        """Drop every id and every table keyed on them."""
        for table in self._tables:
            table.clear()

    def size(self) -> int:
        """The number of entries in the largest table."""
        return max(map(len, self._tables))

    def table(self, fill=None) -> dict:
        """A new table, filled by ``fill`` where given, and dropped by
        ``clear``."""
        table = {} if fill is None else _Table(fill)
        self._tables.append(table)
        return table

    def ff(self, f: tuple[int, ...]) -> list[int]:
        """Ff as a source-vid -> target-vid list, extended to every source
        value interned so far."""
        ff, fmap, n_tgt = self._ff.setdefault(f, []), self.fops_src.map, self.fops_tgt.n
        ff.extend(self.tgt(fmap(f, n_tgt, v)) for v in self.vals_src[len(ff):])
        return ff


def _forced(f: tuple[int, ...], ff: list[int], g: tuple) -> dict[int, int] | None:
    """The target vids that Ff . g forces on the image of f, by target
    state, or None when two states of g force different ones."""
    forced: dict[int, int] = {}
    for x, v in enumerate(g):
        w = ff[v]
        if forced.setdefault(f[x], w) != w:
            return None
    return forced


def _maps(ids: _SafetyIds, spaces: Mapping[int, list]):
    """``(f, ff, image, consistent, free)`` per map f of a carrier pair in
    canonical order: ``ff`` is ``ids.ff(f)``, ``image`` the ascending image
    of f, ``consistent`` the number of source coalgebras whose Ff-image is
    a function on it and ``free`` the number of fills of the target states
    outside it.  The canonical enumerations of FX and FY (``spaces`` by
    carrier size) are interned first, so a vid is an index into its
    enumeration and ``product`` order is the canonical coalgebra order."""
    n_src, n_tgt = ids.fops_src.n, ids.fops_tgt.n
    for v in spaces[n_src]:
        ids.src(v)
    for v in spaces[n_tgt]:
        ids.tgt(v)
    for f in product(range(n_tgt), repeat=n_src):
        ff = ids.ff(f)
        fibres = Counter(f)  # each state of the image of f with its preimage size
        # a consistent g picks one target vid per state y of the image and,
        # at each preimage of y, a source vid that Ff maps to it
        preimages = Counter(ff[: len(spaces[n_src])]).values()
        consistent = prod(sum(c**k for c in preimages) for k in fibres.values())
        yield f, ff, sorted(fibres), consistent, len(spaces[n_tgt]) ** (n_tgt - len(fibres))


def _safety_work(
    arity: int, spaces: Mapping[int, list], ids: _SafetyIds, local: Sequence[int],
    lazy: Sequence[int],
) -> int:
    """The target operand tuples ``_safety_squares(..., local)`` yields on
    one carrier pair when the operands in ``lazy`` keep one candidate."""
    values = len(spaces[ids.fops_src.n])
    return sum(
        prod((values if i in local else c) * (1 if i in lazy else free) for i in range(arity))
        for _, _, _, c, free in _maps(ids, spaces)
    )


def _safety_squares(
    op: OperationSpec, ids: _SafetyIds, spaces: Mapping[int, list], local: Sequence[int] = ()
):
    """The joint-morphism premises of the exhaustive sweep, map by map in
    canonical order (``_maps``).

    Yields ``(f, ff, squares, held, premises)`` per map f: ``squares`` is
    the number of morphism squares over f, (consistent * free)**arity, and
    each ``(gammas, cands)`` of ``premises`` stands for ``held`` =
    free**arity of them: ``gammas`` the source operands and ``cands[i]``
    the target coalgebras that agree with Ff . gammas[i] on the image of f,
    in product order, memoised per forced image.  An operand in ``local``
    ranges over the constant coalgebras ``(u,) * n_src`` only, every other
    one over every consistent source coalgebra.  An operand in
    ``actions.LOCAL_OPERANDS`` keeps its first candidate only (vid 0 off
    the image): the operation reads it on the image, where it is forced.
    """
    n_src, n_tgt, lazy = ids.fops_src.n, ids.fops_tgt.n, LOCAL_OPERANDS[op.variant]
    vids, every = range(len(spaces[n_tgt])), range(len(spaces[n_src]))
    constants = [(u,) * n_src for u in every]
    coalgs = list(product(every, repeat=n_src)) if len(local) < op.arity else []
    for f, ff, image, consistent, free in _maps(ids, spaces):

        def fill(stop: int | None, forced: tuple) -> list[tuple]:
            on = {y: (w,) for y, w in zip(image, forced)}
            return list(islice(product(*(on.get(y, vids) for y in range(n_tgt))), stop))

        tables, operands = [_Table(partial(fill, None)), _Table(partial(fill, 1))], []
        for i in range(op.arity):
            cands = tables[i in lazy].__getitem__
            forced = ((g, _forced(f, ff, g)) for g in (constants if i in local else coalgs))
            operands.append([(g, cands(tuple(map(d.get, image)))) for g, d in forced if d])
        premises = (tuple(zip(*p)) for p in product(*operands))
        yield f, ff, (consistent * free) ** op.arity, free**op.arity, premises


def _safety_draws(
    op: OperationSpec, ids: _SafetyIds, rng: random.Random, trials: int, missed: list[int]
):
    """The premises of ``trials`` draws, in the RNG order f, the source
    operands (operand-major, state by state), then each target operand's
    states outside the image of f; a draw whose sources force two values on
    one target state is no premise, draws no target state and is counted in
    ``missed[0]``.  Yields each premise as ``_safety_squares`` yields a
    map, ``(f, ff, 1, 1, [(gammas, cands)])`` with each ``cands[i]`` the
    one drawn target coalgebra.

    A source operand is drawn whole, as the integer its draws spell
    (``FunctorOps.coalgebra_drawer``), and read through two tables of
    ``ids``: code -> source vid tuple, and (f, code) -> that tuple with the
    target vids it forces by target state (None off the image), or None
    where it forces two.  ``ids`` is cleared at the start of the first
    trial at which a table holds more than ``functors.DRAW_TABLE_ENTRIES``
    entries: every table but the two interners gains at most one entry per
    operand and state of either side in a trial, so only the interners are
    measured at every trial, and the other tables once their bound could
    have been passed."""
    fops_src, fops_tgt = ids.fops_src, ids.fops_tgt
    n_src, n_tgt = fops_src.n, fops_tgt.n
    draw_map = predicate_drawer(rng, n_tgt, n_src)
    draw_src, draw_tgt = fops_src.coalgebra_drawer(rng), fops_tgt.drawer(rng)
    coalgebra, vals_src, vals_tgt, ffs, tgt = (
        draw_src.coalgebra, ids.vals_src, ids.vals_tgt, ids._ff, ids.tgt
    )
    source = ids.table(lambda code: tuple(map(ids.src, coalgebra(code)))).__getitem__
    states_tgt = range(n_tgt)

    def forcing(key):
        f, code = key
        g, ff = source(code), ffs.get(f)
        if ff is None or len(ff) < len(vals_src):
            ff = ids.ff(f)
        forced = _forced(f, ff, g)
        return g, forced and tuple(map(forced.get, states_tgt))

    premise = ids.table(forcing).__getitem__
    operands, cap = range(op.arity), functors.DRAW_TABLE_ENTRIES
    grow, room = op.arity * (n_src + n_tgt), 0
    for _ in range(trials):
        if room and len(vals_src) <= cap and len(vals_tgt) <= cap:
            room -= 1
        else:
            size = ids.size()
            if size > cap:
                ids.clear()
                size = 0
            room = (cap - size) // grow
        f = draw_map()
        gammas, forced = zip(*[premise((f, draw_src())) for _ in operands])
        if None in forced:
            missed[0] += 1
            continue
        cands = tuple([
            [on if None not in on else tuple([tgt(draw_tgt()) if w is None else w for w in on])]
            for on in forced
        ])
        yield f, ffs[f], 1, 1, [(gammas, cands)]


def _safety_pair(op: OperationSpec, ids: _SafetyIds, premises) -> tuple[int, int, dict | None]:
    """Cases checked on one carrier pair, target tuples computed, and the
    first counterexample.

    ``premises`` yields ``(f, ff, squares, held, group)`` per map f (per
    draw when sampled); each ``(gammas, cands)`` of ``group`` stands for
    ``held`` squares, checked as Ff(op(gammas)), once, against op(targets)
    on the image of f for the target operand tuples of ``product(*cands)``.
    An operand trimmed to its first candidate comes before the others, so
    the k-th tuple computed is the k-th square of its premise, and the
    first failing square keeps its place in canonical order: it is counted
    after the squares of the group's premises before it.  A group that
    holds counts its ``squares``.  ``ff`` covers the vids interned before
    the premise, so it needs extending only when op(gammas) interned new
    ones.  Only a counterexample is decoded back to FValues.
    """
    n_src, vals_src = ids.fops_src.n, ids.vals_src
    source = ids.table(op_outputs(op, ids.fops_src, vals_src, ids.src, ids.table)).__getitem__
    target = ids.table(op_outputs(op, ids.fops_tgt, ids.vals_tgt, ids.tgt, ids.table)).__getitem__
    cases = evaluated = 0
    for f, ff, squares, held, group in premises:
        at_image = itemgetter(*f)
        done = 0  # the squares of the group's premises checked so far
        for gammas, cands in group:
            out = source(gammas)
            if len(ff) < len(vals_src):
                ff = ids.ff(f)
            lhs = tuple(map(ff.__getitem__, out))  # Ff(op(gammas)) state by state
            want = lhs if n_src > 1 else lhs[0]
            k = 0
            for k, targets in enumerate(product(*cands), 1):
                rhs = target(targets)
                if at_image(rhs) != want:
                    x = next(x for x in range(n_src) if rhs[f[x]] != lhs[x])
                    counter = _safety_counter(ids, f, gammas, targets, x)
                    return cases + done + k, evaluated + k, counter
            done += held
            evaluated += k
        cases += squares
    return cases, evaluated, None


def _check_test_safety(
    test: TestSpec, config: LogicConfig, max_n: int, budget: int, t0: float
) -> Verdict:
    """Naturality square: Ff . test(sigma' . f) = test(sigma') . f, for
    every map f and target predicate sigma'; their number is checked
    against ``budget`` first.  Every square is swept in any mode, and the
    verdict's ``detail`` says so."""
    test.check_kind(config.kind)
    truth = config.truth
    sizes = range(1, max_n + 1)
    total = sum(n_tgt**n_src * truth.m**n_tgt for n_src in sizes for n_tgt in sizes)
    if total > budget:
        msg = f"{total} maps and target predicates up to n={max_n} exceed budget {budget}"
        raise BudgetExceeded(msg, count=total)
    cases = 0
    for n_src in sizes:
        for n_tgt in sizes:
            fops_src = config.fops(n_src)
            fops_tgt = config.fops(n_tgt)
            for f in product(range(n_tgt), repeat=n_src):
                for sigma2 in predicate_space(truth.m, n_tgt):
                    cases += 1
                    pulled = tuple(sigma2[f[x]] for x in range(n_src))
                    lhs = apply_test(test, pulled, fops_src, truth)
                    rhs = apply_test(test, sigma2, fops_tgt, truth)
                    for x in range(n_src):
                        if fops_src.map(f, n_tgt, lhs[x]) != rhs[f[x]]:
                            counter = {
                                "f": list(f),
                                "sigma_target": list(sigma2),
                                "state": x,
                            }
                            return _verdict(
                                "fails", cases, t0, counter, target=test.id, mode="exhaustive"
                            )
    return _verdict(
        "holds-up-to-bound", cases, t0, None, target=test.id, max_n=max_n, mode="exhaustive"
    )


# -- invariance -----------------------------------------------------------


def check_invariance(
    model: Model,
    model2: Model,
    f: Sequence[int],
    formulas: Iterable[Formula],
) -> Verdict:
    """Prop-style invariance along a joint morphism on atoms and props."""
    t0 = time.perf_counter()
    config = model.config
    kind, alg = config.kind, config.struct
    ft = tuple(f)
    for name, gamma in model.atoms.items():
        if name not in model2.atoms:
            raise PreconditionViolated(
                f"atom {name!r} not interpreted in the target model", offender=name
            )
        if not is_morphism(ft, gamma, model2.atoms[name], kind, alg):
            raise PreconditionViolated(
                f"map is not a coalgebra morphism on atom {name!r}", offender=name
            )
    for name, row in model.valuation.items():
        row2 = model2.valuation.get(name)
        if row2 is None or any(row2[ft[x]] != row[x] for x in range(model.n)):
            raise PreconditionViolated(
                f"valuation of {name!r} is not preserved along the map", offender=name
            )
    cases = 0
    session = model.session()
    session2 = model2.session()
    for phi in formulas:
        here = session.eval(phi)
        there = session2.eval(phi)
        for x in range(model.n):
            cases += 1
            if there[ft[x]] != here[x]:
                counter = {
                    "formula": render(phi, config.signature),
                    "state": x,
                    "model": model_to_json(model),
                    "model_target": model_to_json(model2),
                    "f": list(ft),
                }
                return _verdict("fails", cases, t0, counter)
        for action in formula_actions(phi):
            cases += 1
            if not is_morphism(
                ft, session.interpret(action), session2.interpret(action), kind, alg
            ):
                counter = {
                    "action": render(action, config.signature),
                    "model": model_to_json(model),
                    "model_target": model_to_json(model2),
                    "f": list(ft),
                }
                return _verdict("fails", cases, t0, counter)
    return _verdict("holds", cases, t0, None)


def pullback_model(model2: Model, f: Sequence[int], n_src: int) -> Model:
    """A source model making f a joint morphism onto ``model2``.

    Powerset values pull back to full preimages, labelled rows by
    precomposition, double powerset families by preimage members; f must be
    surjective for the construction to land on the given target.
    """
    config = model2.config
    ft = tuple(f)
    if sorted(set(ft)) != list(range(model2.n)):
        raise InvalidParameter("pullback needs a surjective map")
    kind = config.kind
    atoms = {}
    for name, gamma in model2.atoms.items():
        rows = []
        for x in range(n_src):
            v2 = gamma[ft[x]]
            if kind is Kind.POWERSET:
                rows.append(
                    sum(1 << x2 for x2 in range(n_src) if v2 >> ft[x2] & 1)
                )
            elif kind is Kind.APOWERSET:
                rows.append(tuple(v2[ft[x2]] for x2 in range(n_src)))
            elif kind is Kind.DOUBLE_POWERSET:
                rows.append(
                    frozenset(
                        sum(1 << x2 for x2 in range(n_src) if mask >> ft[x2] & 1)
                        for mask in v2
                    )
                )
            else:
                raise UnsupportedKind(
                    "pullback is implemented for powerset, apowerset and "
                    "double powerset kinds"
                )
        atoms[name] = tuple(rows)
    valuation = {
        name: tuple(row[ft[x]] for x in range(n_src))
        for name, row in model2.valuation.items()
    }
    return Model(n_src, config, atoms, valuation)


# -- separation -----------------------------------------------------------


def check_separation(
    liftings: Sequence[LiftingSpec],
    config: LogicConfig,
    n: int,
    budget: int = DEFAULT_SWEEP_BUDGET,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Do the lifting transposes jointly distinguish all pairs in FX?

    Exhaustive mode checks its V(V-1)/2 pairs of values against ``budget``
    first and streams them in canonical order."""
    t0 = time.perf_counter()
    _check_sweep(mode, trials)
    fops = config.fops(n)
    truth = config.truth
    preds = predicate_space(truth.m, n)
    spaces = {
        spec.id: list(product(preds, repeat=spec.arity)) for spec in liftings
    }
    sampled, resample = {}, "; sampled mode is available (mode='random')"
    if mode == "exhaustive":
        try:
            values = list(fops.enumerate(budget))
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{exc}{resample}", count=exc.count) from None
        total = len(values) * (len(values) - 1) // 2
        if total > budget:
            msg = f"{total} pairs of values at n={n} exceed budget {budget}{resample}"
            raise BudgetExceeded(msg, count=total)
        pairs = combinations(values, 2)
    else:
        rng, sampled = random.Random(seed), {"trials": trials, "seed": seed}
        pairs, draw = [], fops.drawer(rng)
        for _ in range(trials):
            t1, t2 = draw(), draw()
            if t1 != t2:
                pairs.append((t1, t2))
        total = len(pairs)
        if not pairs:
            msg = f"trials={trials} drew no pair of distinct values at n={n}: no case to check"
            raise InvalidParameter(msg)
    kernels = [(lifting_kernel(spec, config), spaces[spec.id]) for spec in liftings]
    cases = 0
    for t1, t2 in pairs:
        separated = False
        for kernel, space in kernels:
            for sigmas in space:
                cases += 1
                v1, v2 = kernel(sigmas, (t1, t2), n)
                if v1 != v2:
                    separated = True
                    break
            if separated:
                break
        if not separated:
            counter = {
                "t1": fvalue_to_json(config.kind, t1),
                "t2": fvalue_to_json(config.kind, t2),
                "liftings": [spec.id for spec in liftings],
            }
            return _verdict("fails", cases, t0, counter, n=n, **sampled)
    status = "holds" if mode == "exhaustive" else "holds-up-to-bound"
    return _verdict(status, cases, t0, None, n=n, pairs=total, mode=mode, **sampled)


# -- the case driver of rule and entailment sweeps -------------------------


def _batches(mode: str, trials: int, draw, sweeps, budget: int, models: bool):
    """Load the cases of a rule or entailment sweep into its plans, one
    batch at a time, and yield ``(cases, parts)`` after each: how many
    cases the batch holds, and per plan it ran ``(plan, at, lists,
    index)``, ``lists`` the plan's ids at the compiled positions ``at``,
    one per block of the batch, block ``j`` being ``plan.block(pos, j)``
    and position ``i`` of its cases ``plan.case(i)`` and case ``index[i]``
    of the batch.

    Exhaustive mode sweeps each ``(plan, at)`` of ``sweeps`` in turn, one
    part per batch: a batch is a block list of ``Plan.sweep``, which sets
    up the plan's canonical case space and checks it against ``budget``
    (counting standard models with ``models``) before it interns anything,
    and a step that does not read slot 1 holds one id for every block of
    the list.

    Random mode runs ``trials`` trials in batches of 1, 2, 4, ... up to
    ``SAMPLED_BATCH``, so a sweep failing at trial j has drawn at most
    2j + 1 of them.  ``draw(count)`` draws a batch of ``count`` trials as
    ``(plan, at, index, coalgebras, predicates)`` per plan: the batch's
    trials on that plan, by index, as one column of coalgebras per slot
    (slot 1 first) and one of predicates per variable.  Each plan runs its
    trials at once (``Plan.run_cases``), after ``Plan.forget``, each trial
    its own block.
    """
    if mode == "random":
        done, size = 0, 1
        while done < trials:
            count = min(size, trials - done)
            parts = []
            for plan, at, index, gammas, sigmas in draw(count):
                plan.forget(functors.DRAW_TABLE_ENTRIES)
                plan.run_cases(len(index), gammas, sigmas)
                parts.append((plan, at, list(map(plan.vals.__getitem__, at)), index))
            yield count, parts
            done, size = done + count, min(2 * size, SAMPLED_BATCH)
        return
    for plan, at in sweeps:
        vals = plan.vals
        for blocks in plan.sweep(budget, models):
            B = len(blocks)
            cases = plan.size * B
            lists = [
                [ids] * B if isinstance(ids, int) else ids for ids in map(vals.__getitem__, at)
            ]
            yield cases, [(plan, at, lists, range(cases))]


# -- reduction-rule soundness ----------------------------------------------


def verify_reduction_rule(
    rule,
    config: LogicConfig,
    n: int = 2,
    mode: str = "exhaustive",
    budget: int = DEFAULT_SWEEP_BUDGET,
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Check lambda(sigmas) . O(gammas) = template[gammas, sigmas] exactly.

    Both sides compile into one template plan.  The left-hand side is an
    ordinary formula under the rule's lifting: ``<O(1, .., arity)>`` over
    w1..wk, or ``<?t(w1)>`` over w2..wk+1 for a test rule, which then has
    no slots and takes its test argument as one more variable.  Exhaustive
    mode sweeps every coalgebra tuple, predicate tuple and state at carrier
    size n; random mode samples ``trials`` coalgebra/predicate draws.
    Values are exact algebra elements, so the tolerance is zero.  Each
    batch of ``_batches`` is checked as one id per block per side; the
    first differing block, then its first differing sigma-position, give
    the first failing case of the case-by-case order.  This is the sweep
    of ``verify_registry`` over a group of one rule, so ``seconds`` and
    ``detail["vectors"]`` are this rule's own.
    """
    _check_sweep(mode, trials)
    t0 = time.perf_counter()
    plan, at = _rule_plan([rule], config, n, mode)
    return _verify_rules([rule], plan, at, mode, budget, trials, seed, t0)[0]


def _shape(rule, config: LogicConfig) -> tuple[int, int]:
    """A rule's slots and variables: the operation's arity and the
    lifting's, or no slot and the lifting's arity plus the test argument.
    A sweep's block lists, batches and draws depend on nothing else."""
    k = config.lifting(rule.lifting).arity
    if rule.target_kind == "test":
        return 0, k + 1
    return config.op(rule.target).arity, k


def _rule_plan(rules: Sequence, config: LogicConfig, n: int, mode: str) -> tuple[Plan, list]:
    """One plan over the sides of rules of one ``_shape`` at carrier size
    ``n``, canonical when ``mode`` is exhaustive, and the positions of each
    rule's left-hand side, then its right-hand side."""
    arity, n_vars = _shape(rules[0], config)
    plan = Plan(config, n, arity, n_vars, canonical=mode == "exhaustive")
    at = []
    for rule in rules:
        is_test = rule.target_kind == "test"
        if is_test:
            action = Test(rule.target, Var(1))
        else:
            action = Op(rule.target, tuple(range(1, arity + 1)))
        args = tuple(map(Var, range(1 + is_test, n_vars + 1)))
        at += [plan.compile(Modal(rule.lifting, action, args)), plan.compile(rule.template.body)]
    return plan, at


def _verify_rules(
    rules: Sequence, plan: Plan, at: list, mode: str, budget: int, trials: int, seed: int,
    t0: float,
) -> list[Verdict]:
    """The verdicts of rules of one ``_shape``, compiled into ``plan`` at
    ``at`` by ``_rule_plan``: one ``_batches`` sweep (in random mode, from
    one RNG) compares each rule's sides batch by batch until the rule
    fails, after which the plan runs only the steps the other rules read
    (``Plan.narrow``); it stops once every rule has failed.  BudgetExceeded
    is raised before any case.  Seconds run from ``t0``."""
    config, n = plan.config, plan.n
    arity, n_vars = _shape(rules[0], config)
    if mode == "random":  # an exhaustive sweep draws nothing
        rng = random.Random(seed)
        gamma, sigma = plan.fops.coalgebra_drawer(rng), predicate_drawer(rng, config.truth.m, n)
        coalgebra = gamma.coalgebra

    def draw(count: int):  # per trial, the gammas in slot order, then the sigmas
        gammas, sigmas = [[] for _ in range(arity)], [[] for _ in range(n_vars)]
        for _ in range(count):
            for column in gammas:
                column.append(coalgebra(gamma()))
            for column in sigmas:
                column.append(sigma())
        return [(plan, at, range(count), gammas, sigmas)]

    verdicts: list = [None] * len(rules)
    live = range(len(rules))  # the rules that have not failed
    cases = blocks = 0
    for batch, ((_, _, lists, _),) in _batches(
        mode, trials, draw, [(plan, at)], budget, models=False
    ):
        blocks += len(lists[2 * live[0]])  # a failed rule's ids may be stale
        failed = False
        for r in live:
            got, want = lists[2 * r], lists[2 * r + 1]
            if got != want:
                i, counter = _rule_counter(rules[r], plan, at[2 * r], at[2 * r + 1], got, want)
                stats = _reuse(blocks, [len(plan.vecs)]) if plan.canonical else {}
                verdicts[r] = _verdict("fails", cases + (i + 1) * n, t0, counter, **stats)
                failed = True
        if failed:
            live = [r for r in live if verdicts[r] is None]
            if not live:
                return verdicts
            # the failed rules' own steps stop running
            plan.narrow([pos for r in live for pos in at[2 * r : 2 * r + 2]])
        cases += n * batch
    status, stats = "holds", _reuse(blocks, [len(plan.vecs)])
    if mode != "exhaustive":
        status, stats = "holds-up-to-bound", {"trials": trials, "seed": seed}
    for r in live:
        key = list(rules[r].key)
        verdicts[r] = _verdict(status, cases, t0, None, rule=key, n=n, mode=mode, **stats)
    return verdicts


def _rule_counter(rule, plan: Plan, lhs_at: int, rhs_at: int, got, want) -> tuple[int, dict]:
    """The position in its batch of a rule's first failing case, and its
    counterexample: the first block at which ``got`` and ``want``, the ids
    of the sides compiled at ``lhs_at`` and ``rhs_at``, differ, then its
    first differing sigma-position."""
    j = next(j for j, (u, v) in enumerate(zip(got, want)) if u != v)
    lhs, rhs = plan.block(lhs_at, j), plan.block(rhs_at, j)
    s = next(s for s, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    i = j * len(lhs) + s
    coalgs, sigmas = plan.case(i)
    is_test = rule.target_kind == "test"
    counter = {
        "rule": list(rule.key),
        "sigmas": [list(sigma) for sigma in sigmas[is_test:]],
        "lhs": list(plan.preds[lhs[s]]),
        "rhs": list(plan.preds[rhs[s]]),
    }
    if is_test:
        counter["test_argument"] = list(sigmas[0])
    else:
        kind = plan.config.kind
        counter["gammas"] = [[fvalue_to_json(kind, v) for v in g] for g in coalgs]
    return i, counter


def _reuse(blocks: int, vectors: Iterable[int]) -> dict:
    """What an exhaustive sweep records of its memo reuse: the blocks it
    evaluated, and the distinct sigma-vectors its plans interned for them."""
    return {"blocks": blocks, "vectors": sum(vectors)}


def verify_registry(
    registry,
    n: int = 2,
    mode: str = "exhaustive",
    budget: int = DEFAULT_SWEEP_BUDGET,
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> dict[tuple, Verdict]:
    """verify_reduction_rule over every rule in a registry, in its order,
    sweeping each shape once.

    The rules fall into groups by shape: their slots (the operation's
    arity, none for a test) and variables (the lifting's arity, plus one
    for a test).  Each group compiles into one plan and runs one sweep, so
    a shared subterm or table is computed once per shape, not once per
    rule, and a rule's own steps stop running once it fails.  Each rule
    still gets the status, cases, counterexample and ``detail["blocks"]``
    of its own sweep, since block lists, batches and draws depend on the
    shape only.  Its ``seconds`` run from the start of its group to its
    verdict, and ``detail["vectors"]`` counts the vectors of the group's
    plan.  A group whose sweep exceeds the budget gives each of its rules
    an OVER_BUDGET verdict of no cases, with the refused count and the
    reason in its detail, and the other groups are still checked.

    The registry keeps each group's compiled plan in ``registry.plans``,
    keyed on n, mode and the group's rules, so a later call at the same n
    and mode compiles nothing.  After every sweep, one that raises
    included, the plan is reset (``Plan.reset``): it keeps its compiled
    steps but no id or table entry, so each call's verdicts are those of a
    fresh plan.  A plan leaves the store while it sweeps, so a call made
    meanwhile, from another thread, compiles its own.
    """
    _check_sweep(mode, trials)
    config, plans = registry.config, registry.plans
    groups: dict[tuple[int, int], dict] = {}
    for key, rule in registry.rules.items():
        groups.setdefault(_shape(rule, config), {})[key] = rule
    verdicts = {}
    for group in groups.values():
        t0 = time.perf_counter()
        rules = tuple(group.values())
        key = n, mode, rules
        # out of the store while it sweeps, so no two sweeps share a plan
        plan, at = plans.pop(key, None) or _rule_plan(rules, config, n, mode)
        try:
            found = _verify_rules(rules, plan, at, mode, budget, trials, seed, t0)
        except BudgetExceeded as exc:
            found = [
                Verdict(
                    OVER_BUDGET, 0, time.perf_counter() - t0, None,
                    {"count": exc.count, "reason": str(exc)},
                )
                for _ in group
            ]
        finally:
            plan.reset()
            plans[key] = plan, at
        verdicts.update(zip(group, found))
    return {key: verdicts[key] for key in registry.rules}


# -- one-step satisfiability ----------------------------------------------

ONE_STEP_KINDS = ("labelled-diamond", "threshold", "monotone-eval")


@dataclass
class AxiomViolation:
    axiom: str
    instance: dict


@dataclass
class OneStepResult:
    alpha: object | None
    violation: AxiomViolation | None

    @property
    def satisfiable(self) -> bool:
        return self.violation is None


def one_step_witness(kind: str, alg: Algebra, n: int, H: Mapping) -> OneStepResult:
    """Construct a one-step witness for a rank-1 assignment, or name the
    violated rank-1 axiom.

    H keys by kind: labelled-diamond and monotone-eval map predicate tuples
    to elements; threshold maps (r, state-bitmask) pairs to 0/1.  H must be
    defined on exactly the atoms of ``one_step_atoms``, with values in its
    range; otherwise InvalidParameter names the offending atom.

    The witness comes first, as in the one-step completeness proof: alpha
    is read off H, and H is compared with the assignment H_alpha that alpha
    induces, in O(|P| n).  Only when they differ are the rank-1 axioms
    scanned, in canonical order, to name the first one H violates;
    "one-step-satisfaction" names the first differing atom when H satisfies
    them all.  H = H_alpha satisfies every axiom when the algebra passed
    ``validate_flew`` ((*) distributes over finite joins and 0 (*) c = 0;
    on a chain, r <= a \\/ b iff r <= a or r <= b), so the answer is the
    one a scan of the axioms first would give.
    """
    if kind not in ONE_STEP_KINDS:
        raise UnsupportedKind(
            f"one-step witnesses support {', '.join(ONE_STEP_KINDS)}; got {kind!r}"
        )
    if kind == "threshold" and not alg.linear:
        raise NonlinearAlgebra("threshold witnesses require a linear algebra")
    atoms, allowed = one_step_atoms(kind, alg, n)
    values = _h_values(H, atoms, allowed, "threshold atom" if kind == "threshold" else "predicate")
    if kind == "monotone-eval":
        # alpha is H itself, a witness exactly when it is monotone
        if functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, n, alg).is_monotone(values):
            return OneStepResult(tuple(values), None)
        return OneStepResult(None, _eval_violation(alg, atoms, H))
    if kind == "labelled-diamond":
        alpha = tuple(H[tuple(alg.top if y == x else 0 for y in range(n))] for x in range(n))
    else:
        alpha = tuple(
            alg.bigjoin(r for r in range(1, alg.m) if H[(r, 1 << x)] == 1) for x in range(n)
        )
    induced = _induced(kind, alg, n, alpha)
    if induced == values:
        return OneStepResult(alpha, None)
    scan = _diamond_violation if kind == "labelled-diamond" else _threshold_violation
    violation = scan(alg, n, H)
    if violation is None:
        i = next(i for i, (u, v) in enumerate(zip(values, induced)) if u != v)
        if kind == "labelled-diamond":
            atom = {"p": list(atoms[i])}
        else:
            atom = {"r": atoms[i][0], "S": atoms[i][1]}
        violation = AxiomViolation(
            "one-step-satisfaction", {**atom, "expected": values[i], "got": induced[i]}
        )
    return OneStepResult(None, violation)


def one_step_atoms(kind: str, alg: Algebra, n: int) -> tuple[tuple, range]:
    """The atoms a rank-1 assignment of ``kind`` is defined on, in canonical
    order, and the values it takes: the predicates and the algebra's
    elements, or for threshold the pairs (r, S) of r in 1..m-1 and a state
    bitmask S, and 0/1."""
    if kind == "threshold":
        return _threshold_atoms(alg.m, n), range(2)
    return predicate_space(alg.m, n), range(alg.m)


@lru_cache(maxsize=None)
def _threshold_atoms(m: int, n: int) -> tuple[tuple[int, int], ...]:
    return tuple((r, s) for r in range(1, m) for s in range(1 << n))


def one_step_assignment(kind: str, alg: Algebra, n: int, alpha) -> dict:
    """H_alpha, the rank-1 assignment a witness alpha induces, keyed as
    ``one_step_witness`` reads it."""
    return dict(zip(one_step_atoms(kind, alg, n)[0], _induced(kind, alg, n, alpha)))


def _induced(kind: str, alg: Algebra, n: int, alpha) -> list:
    """H_alpha on ``one_step_atoms(kind, alg, n)``, in their order."""
    if kind == "monotone-eval":
        return list(alpha)
    jt = alg.join_table
    if kind == "labelled-diamond":
        # H_alpha(p) = \/_x p(x) (*) alpha(x), folded one state at a time in
        # the lexicographic order of the predicates
        tt, acc = alg.tensor_table, [0]
        for a in alpha:
            row = [tt[v][a] for v in range(alg.m)]
            acc = [jt[u][t] for u in acc for t in row]
        return acc
    # H_alpha(r, S) = 1 iff r <= \/_{x in S} alpha(x); a mask's join is its
    # lowest state's alpha joined onto the join of the rest
    joins = [0]
    for s in range(1, 1 << n):
        joins.append(jt[joins[s & (s - 1)]][alpha[(s & -s).bit_length() - 1]])
    return [1 if alg._leq[r][j] else 0 for r in range(1, alg.m) for j in joins]


def _h_values(H: Mapping, atoms: tuple, allowed: range, what: str) -> list:
    """H's values on ``atoms``, in order, once H is known to hold exactly
    these keys, each mapped into ``allowed``."""
    try:
        values = list(map(H.__getitem__, atoms))
    except KeyError as exc:
        raise InvalidParameter(f"H is not total: missing {what} {exc.args[0]}") from None
    if len(H) != len(atoms):
        known = set(atoms)
        extra = next(key for key in H if key not in known)
        raise InvalidParameter(f"H has an entry at {extra!r}, which is not a {what}")
    for atom, v in zip(atoms, values):
        if not isinstance(v, int) or v not in allowed:
            raise InvalidParameter(
                f"H value {v!r} at {what} {atom} is outside {allowed.start}..{allowed.stop - 1}"
            )
    return values


def _diamond_violation(alg: Algebra, n: int, H: Mapping) -> AxiomViolation | None:
    """The first instance of the join axiom, then of the constant axiom,
    that H violates."""
    preds = predicate_space(alg.m, n)
    jt, tt = alg.join_table, alg.tensor_table
    # join axiom: H(dia(p \/ q)) = H(dia p) \/ H(dia q)
    for p in preds:
        for q in preds:
            joined = tuple(jt[u][v] for u, v in zip(p, q))
            if H[joined] != jt[H[p]][H[q]]:
                return AxiomViolation(
                    "diamond-join",
                    {"p": list(p), "q": list(q), "axiom": "dia(p \\/ q) <-> dia p \\/ dia q"},
                )
    # constant axiom: H(dia(p (*) c)) = H(dia p) (*) c
    for p in preds:
        for c in range(alg.m):
            scaled = tuple(tt[v][c] for v in p)
            if H[scaled] != tt[H[p]][c]:
                return AxiomViolation(
                    "diamond-constant",
                    {"p": list(p), "c": c, "axiom": "dia(p (*) c) <-> dia p (*) c"},
                )
    return None


def _threshold_violation(alg: Algebra, n: int, H: Mapping) -> AxiomViolation | None:
    """The first instance of the bottom and join axioms, threshold by
    threshold, then of the monotonicity axiom, that H violates."""
    rs, masks = range(1, alg.m), range(1 << n)
    for r in rs:
        if H[(r, 0)] != 0:
            return AxiomViolation("threshold-bottom", {"r": r, "axiom": "dia_r bot <-> bot"})
        for s1 in masks:
            for s2 in masks:
                if H[(r, s1 | s2)] != max(H[(r, s1)], H[(r, s2)]):
                    return AxiomViolation(
                        "threshold-join",
                        {
                            "r": r,
                            "S1": s1,
                            "S2": s2,
                            "axiom": "dia_r(p \\/ q) <-> dia_r p \\/ dia_r q",
                        },
                    )
    for s in masks:
        for r1 in rs:
            for r2 in rs:
                if alg.leq(r2, r1) and H[(r1, s)] > H[(r2, s)]:
                    return AxiomViolation(
                        "threshold-monotonicity",
                        {
                            "r1": r1,
                            "r2": r2,
                            "S": s,
                            "axiom": "dia_r1 p -> dia_r2 p for all r2 <= r1",
                        },
                    )
    return None


def _eval_violation(alg: Algebra, preds: tuple, H: Mapping) -> AxiomViolation:
    """The first pair of predicates p <= q with H(p) not below H(q); H is
    known not to be monotone."""
    leq = alg.leq
    return next(
        AxiomViolation(
            "eval-monotonicity",
            {"p": list(p), "q": list(q), "axiom": "dia p -> dia(p \\/ q)"},
        )
        for p in preds
        for q in preds
        if all(leq(u, v) for u, v in zip(p, q)) and not leq(H[p], H[q])
    )


# -- bounded entailment ----------------------------------------------------


def bounded_entailment(
    gamma: Sequence[Formula],
    phi: Formula,
    config: LogicConfig,
    max_n: int = 2,
    mode: str = "exhaustive",
    budget: int = DEFAULT_SWEEP_BUDGET,
    trials: int = 10_000,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """Search standard models up to max_n states for a countermodel of
    Gamma |= phi; truth means value 1 at the state.

    Gamma and phi compile into one plan per carrier size, propositions as
    its variables and atomic actions as its slots.  Exhaustive mode
    evaluates them once per atom assignment over every valuation at once,
    as one block, and checks each distinct block once; the first failing
    valuation of the first failing block of a batch of ``_batches`` is the
    first countermodel of the case-by-case order.  Random mode draws each
    model's size, then its atoms and valuation, and runs a batch's models
    of one size at once in the plan of that size; the batch's first
    countermodel is the one of least trial index over its plans.
    """
    t0 = time.perf_counter()
    _check_sweep(mode, trials, max_n)
    formulas = list(gamma) + [phi]
    prop_names = sorted(set().union(set(), *(props_of(g) for g in formulas)))
    atom_names = sorted(set().union(set(), *(atoms_of(g) for g in formulas)))
    slots = atom_names[::-1]  # the last atom moves fastest: slot 1

    def compiled(n: int):  # a plan of n states, with phi, Gamma and the constant 1 at ``at``
        plan = Plan(config, n, slots, prop_names, canonical=mode == "exhaustive")
        return plan, [plan.compile(phi), *map(plan.compile, gamma), plan.compile(Conn("1"))]

    if mode == "random":  # an exhaustive sweep draws nothing
        rng = random.Random(seed)
        carrier = int_drawer(rng, 1, max_n)

    def drawn(n: int):  # a plan of n states with its coalgebra and predicate drawers
        plan, at = compiled(n)
        return plan, at, plan.fops.coalgebra_drawer(rng), predicate_drawer(rng, config.truth.m, n)

    plans = _Table(drawn)
    plan_of = plans.__getitem__

    def draw(count: int):  # per trial, the size, the gammas in atom-name order, then the sigmas
        parts = _Table(lambda n: ([], [[] for _ in atom_names], [[] for _ in prop_names]))
        part_of = parts.__getitem__
        for t in range(count):
            n = carrier()
            _, _, gamma, sigma = plan_of(n)
            index, gammas, sigmas = part_of(n)  # size n's trial indices, gamma and sigma columns
            index.append(t)
            for column in gammas:
                column.append(gamma.coalgebra(gamma()))
            for column in sigmas:
                column.append(sigma())
        return (
            (*plans[n][:2], index, gammas[::-1], sigmas)
            for n, (index, gammas, sigmas) in parts.items()
        )

    sweeps = map(compiled, range(1, max_n + 1))
    cases = blocks = 0
    vectors = {}  # carrier size -> the sigma-vectors its plan interned
    # carrier size -> the blocks' ids of phi and Gamma known to hold; a
    # sampled plan may forget its ids before the next batch
    held = {}
    for batch, parts in _batches(mode, trials, draw, sweeps, budget, models=True):
        firsts = []  # per plan, its first countermodel: (case of the batch, position, states, plan)
        for plan, at, lists, index in parts:
            phi_ids, top = lists[0], lists[-1][0]
            blocks += len(phi_ids)
            if plan.canonical:
                vectors[plan.n] = len(plan.vecs)
            if phi_ids.count(top) == len(phi_ids):
                continue
            seen = held.setdefault(plan.n, set()) if plan.canonical else set()
            for j, key in enumerate(zip(*lists[:-1])):
                if key[0] == top or key in seen:
                    continue
                got = _countermodel(plan, at[:-1], j)
                if got is None:
                    seen.add(key)
                    continue
                firsts.append((index[got[0]], *got, plan))
                break
        if firsts:
            j, i, bad, plan = min(firsts)  # the cases of a batch are distinct
            coalgs, sigmas = plan.case(i)
            model = Model(
                plan.n, config, dict(zip(atom_names, coalgs[::-1])), dict(zip(prop_names, sigmas))
            )
            counter = {
                "model": model_to_json(model),
                "state": (bad & -bad).bit_length() - 1,
                "phi": render(phi, config.signature),
                "gamma": [render(g, config.signature) for g in gamma],
            }
            stats = {"seed": seed} if mode == "random" else _reuse(blocks, vectors.values())
            return _verdict("fails", cases + j + 1, t0, counter, max_n=max_n, mode=mode, **stats)
        cases += batch
    stats = {"trials": trials, "seed": seed}
    if mode == "exhaustive":
        stats = _reuse(blocks, vectors.values())
    return _verdict("holds-up-to-bound", cases, t0, None, max_n=max_n, mode=mode, **stats)


def _countermodel(plan: Plan, at: Sequence[int], j: int) -> tuple[int, int] | None:
    """The position in its batch of the first case of block ``j`` at which
    some state has phi, the step at ``at[0]``, below top and every formula
    of Gamma, the steps at ``at[1:]``, at top, with the mask of those
    states; None where there is none."""
    masks, full = plan.masks(), (1 << plan.n) - 1
    phis, *rows = (plan.block(pos, j) for pos in at)
    for s, f in enumerate(phis):
        bad = full & ~masks[f]
        for row in rows:
            bad &= masks[row[s]]
        if bad:
            return j * len(phis) + s, bad
    return None
