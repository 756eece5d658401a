"""Span tracer that wraps mvdl's public functions and methods from outside.

Nothing inside ``src/mvdl`` changes.  ``Tracer.install`` replaces every
public function and method of the mvdl modules by a wrapper, in every module
namespace that binds it (mvdl modules import each other's functions by name,
so ``harness.apply_lifting`` is patched as well as
``semantics.apply_lifting``), and ``uninstall`` puts the originals back.

Rules:

* A call opens a span unless the innermost open span belongs to the same
  function: a direct recursive call only counts.
* A span's self time is its duration minus the durations of its child spans.
* Hot leaf helpers listed in ``COUNT_ONLY`` are counted, never timed.
* Generators (``FunctorOps.enumerate``) open one span per ``next()``; the
  values they yield are counted.
* Spans are aggregated in memory per function and per module; the spans
  opened directly by the benchmark (depth 0) are kept one by one, with the
  per-module self time spent under each.  ``report()`` hands all of it back
  at the end for the benchmark to write out.
"""

from __future__ import annotations

import inspect
import time
import types
import weakref

MODULES = (
    "algebra",
    "syntax",
    "functors",
    "semantics",
    "actions",
    "presets",
    "reduction",
    "harness",
    "jsonio",
    "cli",
)

# Leaf helpers called inside the innermost loops: timing them would cost
# more than they do, so they are only counted.
COUNT_ONLY = frozenset(
    [f"algebra.Algebra.{m}" for m in (
        "meet", "join", "tensor", "impl", "neg", "leq", "bigjoin", "bigmeet",
        "elements", "label",
    )]
    + [
        "algebra.sanitize_label",
        "algebra.chi_name",
        "algebra.const_name",
        "algebra.chi_table",
        "algebra.term_to_text",
        "algebra.UnaryTermClone.term_for",
        "syntax.neg",
        "syntax.tneg",
        "syntax.big_or",
        "syntax.big_and",
        "syntax.Signature.lifting_arity",
        "syntax.Signature.op_arity",
        "syntax.Signature.conn_arity",
        "functors.predicate_space",
        "functors.predicate_index",
        "functors.fvalue_count",
        "functors.functor_ops",
        "functors.FunctorOps.unit",
        "functors.FunctorOps.bottom",
        "functors.FunctorOps.join2",
        "functors.FunctorOps.join",
        "functors.FunctorOps.is_valid",
        "functors.FunctorOps.count",
        "semantics.crisp_mask",
        "semantics.LiftingSpec.check_kind",
        "semantics.LogicConfig.lifting",
        "semantics.LogicConfig.op",
        "semantics.LogicConfig.test",
        "semantics.LogicConfig.fops",
        "semantics.Model.session",
        "actions.OperationSpec.check_kind",
        "actions.TestSpec.check_kind",
        "actions.embed_truth",
        "presets.threshold_lifting_id",
        "reduction.RuleRegistry.add",
        "reduction.RuleRegistry.get",
    ]
)

# Constructors that are layer operations in their own right.
CONSTRUCTORS = ("semantics.Model", "algebra.Algebra")

EVAL = "semantics.EvalSession.eval"
VERDICT_SOURCES = frozenset(
    "harness." + n
    for n in (
        "verify_reduction_rule",
        "bounded_entailment",
        "check_safety",
        "check_separation",
        "check_invariance",
    )
)


class _Stat:
    __slots__ = ("calls", "spans", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.spans = 0
        self.incl = 0.0
        self.self_s = 0.0


def _ast_size(node) -> int:
    """Node count of a formula/action AST (props, connectives, modalities,
    atomic actions, operations, tests)."""
    count = 0
    todo = [node]
    while todo:
        n = todo.pop()
        count += 1
        args = getattr(n, "args", None)
        if args:
            todo.extend(args)
        action = getattr(n, "action", None)
        if action is not None:
            todo.append(action)
        arg = getattr(n, "arg", None)
        if arg is not None and not isinstance(arg, (int, str)):
            todo.append(arg)
    return count


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [key, child seconds, module]
        self.stats: dict[str, _Stat] = {}
        self.module_incl: dict[str, float] = {}
        self.roots: list[dict] = []
        self.counters = {
            "harness.cases": 0,
            "reduction.nf_nodes": 0,
            "functors.values": 0,
            "semantics.eval_hits": 0,
        }
        self._seen = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._class_targets: list[tuple[object, object, type, str]] = []
        self._t0 = time.perf_counter()

    # -- wrapping ---------------------------------------------------------
    def _stat(self, key: str) -> _Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        return st

    def _count_wrapper(self, fn, key):
        st = self._stat(key)

        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _close(self, frame, st, dt):
        stack = self.stack
        stack.pop()
        st.incl += dt
        st.self_s += dt - frame[1]
        module = frame[2]
        if stack:
            parent = stack[-1]
            parent[1] += dt
            if parent[2] != module:
                self.module_incl[module] = self.module_incl.get(module, 0.0) + dt
        else:
            self.module_incl[module] = self.module_incl.get(module, 0.0) + dt
            self._close_root(frame, dt)

    def _open_root(self):
        self._root_start = (time.perf_counter() - self._t0, self._module_self())

    def _close_root(self, frame, dt):
        start, before = self._root_start
        after = self._module_self()
        self.roots.append({
            "name": frame[0],
            "start_s": start,
            "duration_s": dt,
            "self_s_by_module": {
                m: after[m] - before.get(m, 0.0)
                for m in after
                if after[m] - before.get(m, 0.0) > 0.0
            },
        })

    def _module_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, st in self.stats.items():
            module = key.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + st.self_s
        return out

    def _span_wrapper(self, fn, key):
        st = self._stat(key)
        module = key.split(".", 1)[0]
        stack = self.stack
        clock = time.perf_counter
        post = None
        if key in VERDICT_SOURCES:
            counters = self.counters

            def post(result):
                cases = getattr(result, "cases", None)
                if isinstance(cases, int) and hasattr(result, "status"):
                    counters["harness.cases"] += cases
        elif key == "reduction.reduce_full":
            counters = self.counters

            def post(result):
                counters["reduction.nf_nodes"] += _ast_size(result)

        def spanned(*args, **kwargs):
            st.calls += 1
            if stack and stack[-1][0] is key:
                return fn(*args, **kwargs)
            st.spans += 1
            frame = [key, 0.0, module]
            if not stack:
                self._open_root()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, st, clock() - t0)
            if post is not None:
                post(result)
            return result

        return spanned

    def _eval_wrapper(self, fn, key):
        """EvalSession.eval: a span, plus hit tracking per session."""
        inner = self._span_wrapper(fn, key)
        seen_by_session = self._seen
        counters = self.counters
        stack = self.stack
        clock = time.perf_counter

        def traced_eval(session, formula):
            # the lookup hashes the formula as mvdl's own memo does; its time
            # is charged to no span, so it does not inflate eval's self time
            t0 = clock()
            seen = seen_by_session.get(session)
            if seen is None:
                seen = seen_by_session[session] = set()
            if formula in seen:
                counters["semantics.eval_hits"] += 1
            else:
                seen.add(formula)
            if stack:
                stack[-1][1] += clock() - t0
            return inner(session, formula)

        return traced_eval

    def _gen_wrapper(self, fn, key):
        st = self._stat(key)
        module = key.split(".", 1)[0]
        stack = self.stack
        clock = time.perf_counter
        counters = self.counters
        values_key = "functors.values" if key == "functors.FunctorOps.enumerate" else None

        def traced_gen(*args, **kwargs):
            st.calls += 1
            gen = fn(*args, **kwargs)

            def stepper():
                while True:
                    st.spans += 1
                    frame = [key, 0.0, module]
                    if not stack:
                        self._open_root()
                    stack.append(frame)
                    t0 = clock()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, st, clock() - t0)
                    if values_key is not None:
                        counters[values_key] += 1
                    yield value

            return stepper()

        return traced_gen

    def _wrap(self, fn, key):
        if key in COUNT_ONLY:
            return self._count_wrapper(fn, key)
        if key == EVAL:
            return self._eval_wrapper(fn, key)
        if inspect.isgeneratorfunction(fn):
            return self._gen_wrapper(fn, key)
        return self._span_wrapper(fn, key)

    # -- install / uninstall -------------------------------------------
    def install(self, mods: dict[str, types.ModuleType]) -> None:
        """Wrap the public API of ``mods`` (short name -> module) and patch
        every mvdl namespace that binds one of the wrapped functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            self._build_wrappers(mods)
        for orig, wrapper, owner, attr in self._class_targets:
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _build_wrappers(self, mods) -> None:
        for short in MODULES:
            module = mods[short]
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(short, value)
                    continue
                fn = getattr(value, "__wrapped__", value)  # lru_cache objects
                if (
                    callable(value)
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                ):
                    key = f"{short}.{attr}"
                    self._wrappers[id(value)] = (value, self._wrap(value, key))

    def _wrap_class(self, short: str, cls: type) -> None:
        prefix = f"{short}.{cls.__name__}"
        for attr, value in vars(cls).items():
            public = not attr.startswith("_")
            ctor = attr == "__init__" and prefix in CONSTRUCTORS
            if not (public or ctor) or not isinstance(value, types.FunctionType):
                continue
            key = prefix if ctor else f"{prefix}.{attr}"
            self._class_targets.append((value, self._wrap(value, key), cls, attr))

    # -- results --------------------------------------------------------
    def report(self) -> dict:
        """Per-function and per-module aggregates, counters and root spans."""
        modules: dict[str, dict] = {}
        for key, st in self.stats.items():
            module = key.split(".", 1)[0]
            agg = modules.setdefault(
                module, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            )
            agg["calls"] += st.calls
            agg["self_s"] += st.self_s
        for module, incl in self.module_incl.items():
            modules.setdefault(module, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            modules[module]["incl_s"] = incl
        return {
            "functions": {
                key: {
                    "calls": st.calls,
                    "spans": st.spans,
                    "incl_s": st.incl,
                    "self_s": st.self_s,
                }
                for key, st in sorted(self.stats.items())
            },
            "modules": modules,
            "counters": dict(self.counters),
            "roots": self.roots,
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from the aggregates."""
        rep = self.report()
        fns, mods, ctr = rep["functions"], rep["modules"], rep["counters"]

        def f(key, field):
            return fns.get(key, {}).get(field, 0)

        def m(module, field):
            return mods.get(module, {}).get(field, 0)

        eval_calls = f(EVAL, "calls")
        algebra_methods = sum(
            st["calls"] for key, st in fns.items()
            if key.startswith("algebra.Algebra.")
        )
        return {
            "harness.self_s": m("harness", "self_s"),
            "harness.cases": ctr["harness.cases"],
            "semantics.eval_self_s": f(EVAL, "self_s"),
            "semantics.eval_calls": eval_calls,
            "semantics.memo_hit_ratio": (
                ctr["semantics.eval_hits"] / eval_calls if eval_calls else 0.0
            ),
            "semantics.model_s": f("semantics.Model", "incl_s"),
            "semantics.models": f("semantics.Model", "calls"),
            "semantics.lifting_s": f("semantics.apply_lifting", "incl_s"),
            "semantics.lifting_calls": f("semantics.apply_lifting", "calls"),
            "actions.apply_op_s": f("actions.apply_op", "incl_s"),
            "actions.apply_op_calls": f("actions.apply_op", "calls"),
            "actions.composition_map_s": f("actions.composition_map", "incl_s"),
            "actions.composition_map_calls": f("actions.composition_map", "calls"),
            "actions.apply_test_calls": f("actions.apply_test", "calls"),
            "functors.map_s": f("functors.FunctorOps.map", "incl_s"),
            "functors.map_calls": f("functors.FunctorOps.map", "calls"),
            "functors.enumerate_s": f("functors.FunctorOps.enumerate", "incl_s"),
            "functors.values": ctr["functors.values"],
            "functors.random_value_calls": f("functors.FunctorOps.random_value", "calls"),
            "algebra.closure_s": f("algebra.unary_term_closure", "incl_s"),
            "algebra.closure_calls": f("algebra.unary_term_closure", "calls"),
            "algebra.method_calls": algebra_methods,
            "syntax.parse_s": f("syntax.parse", "incl_s"),
            "syntax.parse_calls": f("syntax.parse", "calls"),
            "syntax.render_s": f("syntax.render", "incl_s"),
            "syntax.instantiate_calls": f("syntax.instantiate", "calls"),
            "reduction.registry_s": f("reduction.builtin_rules", "incl_s"),
            "reduction.registry_calls": f("reduction.builtin_rules", "calls"),
            "reduction.reduce_s": f("reduction.reduce_full", "incl_s"),
            "reduction.nf_nodes": ctr["reduction.nf_nodes"],
            "presets.make_s": f("presets.make_preset", "incl_s"),
            "presets.make_calls": f("presets.make_preset", "calls"),
            "jsonio.s": m("jsonio", "incl_s"),
            "jsonio.calls": m("jsonio", "calls"),
            "cli.self_s": m("cli", "self_s"),
            "cli.requests": f("cli.main", "calls"),
        }
