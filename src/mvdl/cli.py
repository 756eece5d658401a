"""Batch command-line front end.

Exit codes: 0 holds/success, 1 fails/countermodel (payload on stdout),
2 usage or parse error, 3 budget exceeded.  The MVDL_BUDGET environment
variable overrides the default sweep budget.

A process that calls ``main`` many times (tests, notebooks, a benchmark
loop) pays its set-up once: the argument parser is built on the first call
and reused, and the builtin algebras (B2, L<n>, G<n>) are built, validated
and given their unary term clones once per process.  A preset over a
builtin algebra is built once per process too, with its builtin rule
registry, which keeps the plans that ``verify-rules`` compiles for each
carrier size and mode, reset after every sweep.  An algebra given by a
JSON path is read and built afresh on every call.  Each call then pays
only for its subcommand; its reply is the one a fresh process would give.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import harness, jsonio, reduction
from .algebra import algebra_by_name, is_builtin_name, is_semiprimal, validate_flew
from .errors import (
    BudgetExceeded,
    ClosureBudgetExceeded,
    InvalidParameter,
    MvdlError,
    RewriteBudgetExceeded,
)
from .functors import Kind, functor_ops
from .presets import make_preset
from .semantics import eval_formula
from .syntax import parse, render

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budget(args) -> int:
    """--budget if given, else MVDL_BUDGET if set, else the default."""
    if args.budget is not None:
        return args.budget
    env = os.environ.get("MVDL_BUDGET")
    if not env:
        return harness.DEFAULT_SWEEP_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise InvalidParameter(f"MVDL_BUDGET is not an integer: {env!r}") from None
    if budget < 1:
        raise InvalidParameter(f"MVDL_BUDGET must be at least 1, got {budget}")
    return budget


def _is_file(ref: str) -> bool:
    # a builtin name wins over a file of that name, which is passed as ./L2
    return not is_builtin_name(ref) and (
        ref.endswith(".json") or os.path.sep in ref or os.path.exists(ref)
    )


def _load_algebra(ref: str):
    if _is_file(ref):
        return jsonio.algebra_from_json(jsonio.load_json(ref))
    return algebra_by_name(ref)


def _load_h(path: str, kind: str, alg, n: int) -> dict:
    """The H entries of a one-step file: {"entries": [[key, value], ...]},
    each key an atom of ``harness.one_step_atoms`` given as a list of
    integers, once, and each value an integer in the atoms' range."""
    data = jsonio.load_json(path)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise InvalidParameter(f"{path}: field 'entries' must be a list of [key, value]")
    atoms, allowed = harness.one_step_atoms(kind, alg, n)
    known = set(atoms)
    H = {}
    for i, entry in enumerate(entries):
        where = f"{path}: field 'entries[{i}]'"
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], list)
            and all(type(v) is int for v in (*entry[0], entry[1]))
        ):
            raise InvalidParameter(f"{where} is not a [key, value] pair of integers")
        key, value = tuple(entry[0]), entry[1]
        if key not in known:
            raise InvalidParameter(f"{where}: key {entry[0]} is not a {kind} atom at n={n}")
        if value not in allowed:
            raise InvalidParameter(
                f"{where}: value {value} is outside {allowed.start}..{allowed.stop - 1}"
            )
        if key in H:
            raise InvalidParameter(f"{where}: key {entry[0]} was given before")
        H[key] = value
    return H


def _emit(payload: dict, fmt: str, text: str | None = None) -> None:
    _say(jsonio.dumps(payload) if fmt == "json" or text is None else text, sys.stdout)


def _say(text: str, stream) -> None:
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`mvdl ... | head`): the command
        # keeps its own exit code, and the stream goes to devnull so that
        # the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _verdict_exit(verdict: harness.Verdict, fmt: str) -> int:
    payload = jsonio.verdict_to_json(verdict)
    text = f"{verdict.status} ({verdict.cases} cases, {verdict.seconds:.3f}s)"
    if verdict.counterexample is not None:
        text += "\n" + jsonio.dumps(verdict.counterexample)
    _emit(payload, fmt, text)
    return EXIT_OK if verdict.ok else EXIT_FAILS


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    ap = argparse.ArgumentParser(
        prog="mvdl",
        description="Many-valued coalgebraic dynamic logic workbench",
    )
    ap.add_argument("--format", choices=("json", "text"), default="text")
    # the subcommands accept --format too; SUPPRESS keeps their default from
    # overwriting a --format given before the subcommand
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _parents = {"parents": [fmt_parent]}

    def logic(p):
        p.add_argument("--algebra", default="B2", help="builtin name or JSON path")
        p.add_argument(
            "--preset",
            choices=("pdl-crisp", "pdl-labelled", "pdl-threshold", "game", "instantial"),
            default="pdl-crisp",
        )

    def sweep(p, size: str, size_help: str):
        """The flags of a sweep over the logic; ``size`` is --n for a fixed
        carrier, --max-n for carriers up to a size."""
        logic(p)
        p.add_argument(size, type=_int_at_least(1), default=2, help=size_help)
        p.add_argument("--budget", type=_int_at_least(1), default=None)
        p.add_argument(
            "--trials", type=int, default=10_000, help="samples in random mode (at least 1)"
        )
        p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
        p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")

    p = sub.add_parser("validate-algebra", help="check the FLew laws exhaustively", **_parents)
    p.add_argument("--algebra", default=None)
    p.add_argument("--builtin", default=None, help="alias for --algebra with a builtin name")

    p = sub.add_parser("semiprimal", help="decide semi-primality by chi-definability", **_parents)
    p.add_argument("--algebra", default="B2")
    p.add_argument("--budget", type=_int_at_least(1), default=None)

    p = sub.add_parser("eval", help="evaluate a formula in a model", **_parents)
    p.add_argument("--model", required=True)
    p.add_argument("--phi", "--formula", dest="phi", required=True)

    p = sub.add_parser("reduce", help="rewrite to atomic-modality normal form", **_parents)
    logic(p)
    p.add_argument("--phi", "--formula", dest="phi", required=True)

    p = sub.add_parser("verify-rules", help="soundness sweep over the builtin rules", **_parents)
    sweep(p, "--n", "carrier size for the sweep")

    p = sub.add_parser("check-safety", help="morphism preservation for one target", **_parents)
    sweep(p, "--max-n", "largest carrier size")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--op", help="operation to check")
    target.add_argument("--test", help="test to check")

    p = sub.add_parser("check-separation", help="joint monicity of the lifting family", **_parents)
    sweep(p, "--n", "carrier size")

    p = sub.add_parser("one-step", help="one-step witness construction/roundtrips", **_parents)
    p.add_argument("--kind", required=True, choices=harness.ONE_STEP_KINDS)
    p.add_argument("--algebra", default="L2")
    p.add_argument("--n", type=_int_at_least(1), default=2)
    p.add_argument("--h", dest="h_file", default=None, help="JSON file with H entries")
    p.add_argument(
        "--trials", type=_int_at_least(0), default=0,
        help="random roundtrips instead of --h (0: use --h)",
    )
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)

    p = sub.add_parser("entail", help="bounded countermodel search", **_parents)
    sweep(p, "--max-n", "largest carrier size")
    p.add_argument("--phi", "--formula", dest="phi", required=True)
    # no list default: a shared parser would hand the same list to every call
    p.add_argument("--gamma", action="append", default=None)

    return ap


def _cmd_validate_algebra(args, fmt: str) -> int:
    ref = args.algebra or args.builtin
    if not ref:
        raise MvdlError("validate-algebra needs --algebra or --builtin")
    alg = _load_algebra(ref)
    report = validate_flew(alg)
    payload = {
        "algebra": alg.name or "inline",
        "ok": report.ok,
        "checks": [
            {"family": c.family, "law": c.law, "ok": c.ok, "witness": c.witness}
            for c in report.checks
        ],
    }
    _emit(payload, fmt, report.summary())
    return EXIT_OK if report.ok else EXIT_FAILS


def _cmd_semiprimal(args, fmt: str) -> int:
    alg = _load_algebra(args.algebra)
    budget = 10_000 if args.budget is None else args.budget
    result = is_semiprimal(alg, budget)
    clone = alg.unary_term_closure(budget)
    payload = {
        "algebra": alg.name or "inline",
        "semiprimal": result,
        "clone_size": len(clone),
    }
    _emit(payload, fmt, f"semiprimal: {result} (clone size {len(clone)})")
    return EXIT_OK if result else EXIT_FAILS


def _cmd_eval(args, fmt: str) -> int:
    model = jsonio.model_from_json(jsonio.load_json(args.model))
    phi = parse(args.phi, model.config.signature, "formula")
    row = eval_formula(model, phi)
    labels = [model.config.truth.label(v) for v in row]
    payload = {"phi": args.phi, "values": list(row), "labels": labels}
    _emit(payload, fmt, " ".join(f"x{i}={lab}" for i, lab in enumerate(labels)))
    return EXIT_OK


@functools.cache
def _builtin_config(preset: str, name: str):
    """A preset over a builtin algebra, built on first use and shared."""
    return make_preset(preset, algebra_by_name(name))


@functools.cache
def _builtin_registry(preset: str, name: str):
    """The builtin rules of ``_builtin_config(preset, name)``, built on
    first use and shared, with the plans their sweeps keep."""
    return reduction.builtin_rules(_builtin_config(preset, name))


def _make_config(args):
    if _is_file(args.algebra):
        return make_preset(args.preset, _load_algebra(args.algebra))
    return _builtin_config(args.preset, algebra_by_name(args.algebra).name)


def _make_registry(args):
    if _is_file(args.algebra):
        return reduction.builtin_rules(_make_config(args))
    return _builtin_registry(args.preset, algebra_by_name(args.algebra).name)


def _cmd_reduce(args, fmt: str) -> int:
    registry = _make_registry(args)
    config = registry.config
    phi = parse(args.phi, config.signature, "formula")
    normal = reduction.reduce_full(phi, registry)
    text = render(normal, config.signature)
    _emit({"phi": args.phi, "normal_form": text}, fmt, text)
    return EXIT_OK


def _cmd_verify_rules(args, fmt: str) -> int:
    registry = _make_registry(args)
    budget = _budget(args)
    results = harness.verify_registry(
        registry, n=args.n, mode=args.mode, budget=budget, trials=args.trials,
        seed=args.seed,
    )
    payload = {
        " ".join(key): jsonio.verdict_to_json(v) for key, v in results.items()
    }
    lines, over_budget = [], False
    for key, v in results.items():
        name = " ".join(key)
        if v.status == harness.OVER_BUDGET:
            over_budget = True
            _say(f"budget exceeded: {name}: {v.detail['reason']}", sys.stderr)
            lines.append(f"{name}: {v.status} ({v.detail['count']} > budget {budget})")
        else:
            lines.append(f"{name}: {v.status} ({v.cases} cases)")
    if registry.gaps:
        payload["gaps"] = [
            {"key": list(k), "reason": reason} for k, reason in registry.gaps
        ]
        lines += [f"gap {k}: {reason}" for k, reason in registry.gaps]
    _emit(payload, fmt, "\n".join(lines))
    if over_budget:
        return EXIT_BUDGET
    return EXIT_OK if all(v.ok for v in results.values()) else EXIT_FAILS


def _cmd_check_safety(args, fmt: str) -> int:
    config = _make_config(args)
    target = config.op(args.op) if args.test is None else config.test(args.test)
    budget = _budget(args)
    verdict = harness.check_safety(
        target, config, max_n=args.max_n, budget=budget, mode=args.mode,
        trials=args.trials, seed=args.seed,
    )
    return _verdict_exit(verdict, fmt)


def _cmd_check_separation(args, fmt: str) -> int:
    config = _make_config(args)
    budget = _budget(args)
    verdict = harness.check_separation(
        list(config.liftings.values()), config, n=args.n, budget=budget,
        mode=args.mode, trials=args.trials, seed=args.seed,
    )
    return _verdict_exit(verdict, fmt)


def _cmd_one_step(args, fmt: str) -> int:
    import random as _random

    alg = _load_algebra(args.algebra)
    if args.trials:
        # H_alpha for a random value alpha of the kind's functor per trial
        alpha = functor_ops(_one_step_kind_tag(args.kind), args.n, alg).drawer(
            _random.Random(args.seed)
        )
        for t in range(args.trials):
            H = harness.one_step_assignment(args.kind, alg, args.n, alpha())
            result = harness.one_step_witness(args.kind, alg, args.n, H)
            if not result.satisfiable:
                _emit(
                    {"trial": t, "violation": result.violation.axiom},
                    fmt,
                    f"trial {t}: violated {result.violation.axiom}",
                )
                return EXIT_FAILS
        _emit(
            {"trials": args.trials, "ok": True},
            fmt,
            f"{args.trials} roundtrips reconstructed a witness",
        )
        return EXIT_OK
    if not args.h_file:
        raise MvdlError("one-step needs --h or --trials")
    H = _load_h(args.h_file, args.kind, alg, args.n)
    result = harness.one_step_witness(args.kind, alg, args.n, H)
    if result.satisfiable:
        payload = {"alpha": jsonio.fvalue_to_json(_one_step_kind_tag(args.kind), result.alpha)}
        _emit(payload, fmt, f"witness: {payload['alpha']}")
        return EXIT_OK
    payload = {
        "violation": result.violation.axiom,
        "instance": result.violation.instance,
    }
    _emit(payload, fmt, f"unsatisfiable: {result.violation.axiom}")
    return EXIT_FAILS


def _one_step_kind_tag(kind: str):
    return Kind.APOWERSET if kind != "monotone-eval" else Kind.MONOTONE_NEIGHBOURHOOD


def _cmd_entail(args, fmt: str) -> int:
    config = _make_config(args)
    phi = parse(args.phi, config.signature, "formula")
    gamma = [parse(g, config.signature, "formula") for g in args.gamma or ()]
    budget = _budget(args)
    verdict = harness.bounded_entailment(
        gamma, phi, config, max_n=args.max_n, mode=args.mode, budget=budget,
        trials=args.trials, seed=args.seed,
    )
    return _verdict_exit(verdict, fmt)


_COMMANDS = {
    "validate-algebra": _cmd_validate_algebra,
    "semiprimal": _cmd_semiprimal,
    "eval": _cmd_eval,
    "reduce": _cmd_reduce,
    "verify-rules": _cmd_verify_rules,
    "check-safety": _cmd_check_safety,
    "check-separation": _cmd_check_separation,
    "one-step": _cmd_one_step,
    "entail": _cmd_entail,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # a random sweep over no samples would report success having checked nothing
        if getattr(args, "mode", None) == "random" and args.trials < 1:
            ap.error(f"argument --trials: must be at least 1 in random mode, got {args.trials}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, args.format)
    except (BudgetExceeded, ClosureBudgetExceeded, RewriteBudgetExceeded) as exc:
        _say(f"budget exceeded: {exc}", sys.stderr)
        return EXIT_BUDGET
    except MvdlError as exc:
        _say(f"error [{exc.code}]: {exc}", sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        _say(f"error: {exc}", sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
