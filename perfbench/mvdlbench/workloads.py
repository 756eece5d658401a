"""The four workloads: what each calls, and the known answer for each call.

A workload has three phases, run once per pass on a freshly imported mvdl:

* ``setup(m)`` builds the algebras, presets and registries the workload
  needs (timed, with the import, as ``setup_s``);
* ``items(m, state)`` builds the calls, each an ``Item`` with a known answer
  (input generation, not timed);
* the benchmark times the calls in order, then runs each item's ``expect``
  on its outcome with tracing off.

``m`` maps short module names ("harness", "cli", ...) to mvdl modules;
calls look functions up through it at call time, so a traced pass sees the
tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import gen, known

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Item:
    """One call into mvdl: a sweep check or a CLI request."""

    label: str
    call: Callable[[], object]
    # expect(result) -> (error message or None, cases checked by the call)
    expect: Callable[[object], tuple[str | None, int]]


def _verdict_expect(status: str, cases: int | None = None, replay=None):
    def expect(v):
        if v.status != status:
            return f"status {v.status}, expected {status}", v.cases
        if cases is not None and v.cases != cases:
            return f"{v.cases} cases, expected {cases}", v.cases
        if replay is not None:
            return replay(v), v.cases
        return None, v.cases

    return expect


# -- rule-sweep ---------------------------------------------------------------


class RuleSweep:
    min_passes = 1
    request = "pass"  # what latency_*_ms and requests_per_s count
    name = "rule-sweep"
    SAMPLED_TRIALS = 4000

    def __init__(self, seed: int, workdir: Path):
        self.sample_seed = random.Random(seed).randrange(1 << 31)

    def setup(self, m):
        alg = m["algebra"].algebra_by_name
        make = m["presets"].make_preset
        rules = m["reduction"].builtin_rules
        L2, L3 = alg("L2"), alg("L3")
        configs = {
            "labelled": make("pdl-labelled", L2),
            "threshold2": make("pdl-threshold", L2),
            "threshold3": make("pdl-threshold", L3),
            "instantial": make("instantial", max_k=1),
            "game": make("game", L2),
        }
        return {k: (c, rules(c)) for k, c in configs.items()}

    def items(self, m, state):
        h = m["harness"]
        out = []

        def sweep(tag, config, rule, kind, struct_m, truth_m, n, op_arity, lift_arity):
            cases = known.rule_sweep_cases(kind, n, struct_m, truth_m, op_arity, lift_arity)
            out.append(Item(
                f"{tag} {' '.join(rule.key)} n={n}",
                lambda: h.verify_reduction_rule(rule, config, n=n),
                _verdict_expect("holds", cases),
            ))

        def arity(config, rule):
            if rule.target_kind == "test":
                return None
            return config.ops[rule.target].arity

        config, reg = state["labelled"]
        for rule in reg.rules.values():
            if rule.target_kind == "op":
                sweep("labelled/L2", config, rule, "apowerset", 3, 3, 2, arity(config, rule), 1)
        config, reg = state["threshold2"]
        for rule in reg.rules.values():
            sweep("threshold/L2", config, rule, "apowerset", 3, 2, 2, arity(config, rule), 1)
        config, reg = state["threshold3"]
        sweep("threshold/L3", config, reg.rules[("op", ";", "dia_2_3")], "apowerset", 4, 2, 2, 2, 1)
        config, reg = state["instantial"]
        for op in ("+", ";", "&"):
            sweep("instantial", config, reg.rules[("op", op, "inst1")], "double-powerset", 2, 2, 2, 2, 1)
        config, reg = state["game"]
        for rule in reg.rules.values():
            sweep("game/L2", config, rule, "monotone-aneighbourhood", 3, 3, 1, arity(config, rule), 1)
        rule = reg.rules[("op", ";", "dia")]
        trials, seed = self.SAMPLED_TRIALS, self.sample_seed
        out.append(Item(
            f"game/L2 op ; dia n=2 sampled seed={seed}",
            lambda: h.verify_reduction_rule(rule, config, n=2, mode="random", trials=trials, seed=seed),
            _verdict_expect("holds-up-to-bound", trials * 2),
        ))
        out.extend(self._mutants(m, state))
        return out

    def _mutants(self, m, state):
        """Deliberately wrong rules that must be refuted: /\\ for \\/ in the
        choice rule, and the two slots of ; swapped."""
        sx, h = m["syntax"], m["harness"]
        config, _ = state["labelled"]
        rule_cls = m["reduction"].ReductionRule
        out = []
        for op, text in (("+", "<1:dia> w1 /\\ <2:dia> w1"), (";", "<2:dia> <1:dia> w1")):
            template = sx.parse(text, config.signature, "template")
            rule = rule_cls("op", op, "dia", template)
            out.append(Item(
                f"mutant labelled/L2 op {op} dia: {text}",
                lambda rule=rule: h.verify_reduction_rule(rule, config, n=2),
                _verdict_expect("fails", replay=self._replayer(m, config, rule)),
            ))
        return out

    @staticmethod
    def _replayer(m, config, rule):
        """Re-evaluate a rule counterexample with EvalSession on the
        instantiated rule, a different path from the sweep's own evaluator."""
        sx = m["syntax"]

        def replay(v):
            cx = v.counterexample
            gammas = [[tuple(row) for row in g] for g in cx["gammas"]]
            model = m["semantics"].Model(
                2, config, {"a": gammas[0], "b": gammas[1]},
                {"p": tuple(cx["sigmas"][0])},
            )
            acts = (sx.Atomic("a"), sx.Atomic("b"))
            lhs = sx.Modal(rule.lifting, sx.Op(rule.target, acts), (sx.Prop("p"),))
            rhs = sx.instantiate(rule.template, acts, (sx.Prop("p"),))
            session = m["semantics"].EvalSession(model)
            got_l, got_r = list(session.eval(lhs)), list(session.eval(rhs))
            if got_l == got_r:
                return "counterexample does not replay: both sides agree"
            if got_l != cx["lhs"] or got_r != cx["rhs"]:
                return f"replay gives {got_l}/{got_r}, verdict says {cx['lhs']}/{cx['rhs']}"
            return None

        return replay


# -- entail -------------------------------------------------------------------


class Entail:
    min_passes = 1
    request = "pass"  # what latency_*_ms and requests_per_s count
    name = "entail"
    GATE_S = 30.0
    TRIALS = 800
    # (preset, algebra, plan): exhaustive up to two states, or "split":
    # exhaustive at one state plus seeded samples up to two states
    PLANS = [
        ("pdl-crisp", "B2", "exhaustive", "powerset", 2, 2),
        ("pdl-labelled", "L2", "exhaustive", "apowerset", 3, 3),
        ("pdl-threshold", "L2", "exhaustive", "apowerset", 3, 2),
        ("game", "L2", "split", "monotone-aneighbourhood", 3, 3),
        ("instantial", "B2", "split", "double-powerset", 2, 2),
    ]

    def __init__(self, seed: int, workdir: Path):
        self.sample_seed = random.Random(seed).randrange(1 << 31)

    def setup(self, m):
        alg = m["algebra"].algebra_by_name
        make = m["presets"].make_preset
        rules = m["reduction"].builtin_rules
        out = []
        for preset, algebra, *_ in self.PLANS:
            config = make(preset, max_k=1) if preset == "instantial" else make(preset, alg(algebra))
            out.append((config, rules(config)))
        return out

    def items(self, m, state):
        sx, h = m["syntax"], m["harness"]
        crisp = state[0][0]
        phi = sx.parse("p -> [a]p", crisp.signature)
        out = [Item(
            "pdl-crisp/B2 p -> [a]p max_n=2",
            lambda: h.bounded_entailment([], phi, crisp, max_n=2),
            _verdict_expect("fails", replay=self._replayer(m, phi, 2)),
        )]
        seed, trials = self.sample_seed, self.TRIALS
        for (config, reg), (preset, algebra, plan, kind, struct_m, truth_m) in zip(state, self.PLANS):
            for rule in reg.rules.values():
                both, atoms, props = self._axiom_instance(sx, config, rule)
                label = f"{preset}/{algebra} {' '.join(rule.key)}"
                max_n = 2 if plan == "exhaustive" else 1
                cases = known.entailment_cases(kind, max_n, struct_m, truth_m, atoms, props)
                out.append(Item(
                    f"{label} max_n={max_n}",
                    lambda both=both, config=config, max_n=max_n: h.bounded_entailment(
                        [], both, config, max_n=max_n
                    ),
                    _verdict_expect("holds-up-to-bound", cases),
                ))
                if plan == "split":
                    out.append(Item(
                        f"{label} max_n=2 sampled seed={seed}",
                        lambda both=both, config=config: h.bounded_entailment(
                            [], both, config, max_n=2, mode="random", trials=trials, seed=seed
                        ),
                        _verdict_expect("holds-up-to-bound", trials),
                    ))
        return out

    @staticmethod
    def _axiom_instance(sx, config, rule):
        """lhs <-> rhs of one builtin reduction axiom, over atoms a, b and
        props p, p1, ... (plus q as the test argument)."""
        arity = 0 if rule.target_kind == "test" else config.ops[rule.target].arity
        acts = tuple(sx.Atomic(a) for a in ("a", "b")[:arity])
        k = config.liftings[rule.lifting].arity
        props = tuple(sx.Prop(f"p{i}" if i else "p") for i in range(k))
        if rule.target_kind == "op":
            lhs = sx.Modal(rule.lifting, sx.Op(rule.target, acts), props)
            rhs = sx.instantiate(rule.template, acts, props)
            n_props = k
        else:
            lhs = sx.Modal(rule.lifting, sx.Test(rule.target, sx.Prop("q")), props)
            rhs = sx.instantiate(rule.template, (), (sx.Prop("q"),) + props)
            n_props = k + 1
        both = sx.Conn("/\\", (sx.Conn("->", (lhs, rhs)), sx.Conn("->", (rhs, lhs))))
        return both, arity, n_props

    @staticmethod
    def _replayer(m, phi, n):
        def replay(v):
            cx = v.counterexample
            model = m["jsonio"].model_from_json(cx["model"])
            if model.n != n:
                return f"countermodel has {model.n} states, expected {n}"
            row = m["semantics"].EvalSession(model).eval(phi)
            if row[cx["state"]] == model.config.truth.m - 1:
                return "countermodel does not replay: phi is true at the state"
            return None

        return replay


# -- safety -------------------------------------------------------------------


class Safety:
    min_passes = 3
    request = "pass"  # what latency_*_ms and requests_per_s count
    name = "safety"
    SAMPLED_TRIALS = 4000

    def __init__(self, seed: int, workdir: Path):
        self.sample_seed = random.Random(seed).randrange(1 << 31)

    def setup(self, m):
        alg = m["algebra"].algebra_by_name
        make = m["presets"].make_preset
        L2, B2 = alg("L2"), alg("B2")
        return {
            "crisp": make("pdl-crisp", L2),
            "labelled": make("pdl-labelled", L2),
            "game": make("game", B2),
        }

    def items(self, m, state):
        h = m["harness"]
        out = []

        def target(tag, config, spec, expect):
            out.append(Item(
                f"{tag} {spec.id} max_n=2",
                lambda: h.check_safety(spec, config, max_n=2),
                expect,
            ))

        held = _verdict_expect("holds-up-to-bound")
        crisp, labelled, game = state["crisp"], state["labelled"], state["game"]
        for op in ("+", ";", "*", "~"):
            target("pdl-crisp/L2", crisp, crisp.ops[op], held)
        target("pdl-crisp/L2", crisp, crisp.tests["t"],
               _verdict_expect("holds-up-to-bound", known.test_safety_cases(2, 3)))
        for op in ("+", ";", "*"):
            target("pdl-labelled/L2", labelled, labelled.ops[op], held)
        target("pdl-labelled/L2", labelled, labelled.tests["t"],
               _verdict_expect("holds-up-to-bound", known.test_safety_cases(2, 3)))
        meet = m["actions"].OperationSpec("meet", 2, "meet-pw")
        target("pdl-labelled/L2", labelled, meet,
               _verdict_expect("fails", replay=self._replayer(m, labelled)))
        for op in ("+", "&", "^d", ";", "*"):
            target("game/B2", game, game.ops[op], held)
        spec, trials, seed = labelled.ops[";"], self.SAMPLED_TRIALS, self.sample_seed
        out.append(Item(
            f"pdl-labelled/L2 ; max_n=2 sampled seed={seed}",
            lambda: h.check_safety(spec, labelled, max_n=2, mode="random", trials=trials, seed=seed),
            held,
        ))
        target("game/B2", game, game.tests["t"],
               _verdict_expect("holds-up-to-bound", known.test_safety_cases(2, 2)))
        return out

    @staticmethod
    def _replayer(m, config):
        """Replay the meet-pw refutation through the morphism square, with
        FunctorOps.map for Ff and the pointwise meet of the chain (min)
        computed here."""

        def replay(v):
            cx = v.counterexample
            f = tuple(cx["f"])
            n_src, n_tgt = len(f), len(cx["gammas_target"][0])
            fops = m["functors"].functor_ops(config.kind, n_src, config.struct)
            src = [[tuple(x) for x in g] for g in cx["gammas"]]
            tgt = [[tuple(x) for x in g] for g in cx["gammas_target"]]
            for g, g2 in zip(src, tgt):
                if any(fops.map(f, n_tgt, g[x]) != g2[f[x]] for x in range(n_src)):
                    return "counterexample map is not a joint morphism"

            def meet(g1, g2):
                return [tuple(map(min, r1, r2)) for r1, r2 in zip(g1, g2)]

            out_src, out_tgt = meet(*src), meet(*tgt)
            x = cx["state"]
            if fops.map(f, n_tgt, out_src[x]) == out_tgt[f[x]]:
                return "counterexample does not replay: the square commutes"
            return None

        return replay


# -- requests -----------------------------------------------------------------


def _cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _reply(result, rc_expected):
    rc, out, err = result
    if rc != rc_expected:
        raise ValueError(f"exit {rc}, expected {rc_expected}: {err.strip()[:200]}")
    return json.loads(out)


class Requests:
    min_passes = 5
    request = "call"  # what latency_*_ms and requests_per_s count
    name = "requests"
    # requests per pass, by subcommand
    MIX = {
        "reduce": 400,
        "eval": 200,
        "entail": 100,
        "verify-rules": 60,
        "check-separation": 60,
        "one-step": 60,
        "validate-algebra": 60,
        "semiprimal": 60,
    }
    SEPARATION = [
        ("pdl-crisp", "B2", "powerset", 2),
        ("pdl-labelled", "L2", "apowerset", 3),
        ("pdl-threshold", "L2", "apowerset", 3),
        ("game", "B2", "monotone-aneighbourhood", 2),
        ("instantial", "B2", "double-powerset", 2),
    ]
    ALGEBRAS = ["B2"] + [f"L{i}" for i in range(1, 6)] + [f"G{i}" for i in range(1, 6)]
    # B2 and the Lukasiewicz chains are semi-primal; Goedel chains with more
    # than two elements are not
    SEMIPRIMAL = [("B2", True), ("L1", True), ("L2", True), ("G2", False), ("G3", False)]
    ONE_STEP = ["labelled-diamond", "threshold", "monotone-eval"]

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        cases = json.loads((DATA / "eval_cases.json").read_text())["cases"]
        presets = list(gen.PRESETS)
        self.reduce_models = {p: gen.random_model(rng, p, 2) for p in presets}
        # one model file per pinned eval case, written before any timing
        for case in cases:
            path = workdir / f"model-{case['id']}.json"
            path.write_text(json.dumps(case["model"]))
            case["path"] = str(path)
        by_preset = {p: [c for c in cases if c["model"]["preset"] == p] for p in presets}
        reqs: list[tuple[str, list[str], dict]] = []
        for i in range(self.MIX["reduce"]):
            preset = presets[i % len(presets)]
            text = gen.FormulaGen(rng, preset).formula(rng.randint(4, 6), 3)
            reqs.append(("reduce", [
                "reduce", "--format", "json", "--preset", preset,
                "--algebra", gen.PRESETS[preset]["algebra"], "--phi", text,
            ], {"preset": preset, "phi": text}))
        for i in range(self.MIX["eval"]):
            case = rng.choice(by_preset[presets[i % len(presets)]])
            reqs.append(("eval", [
                "eval", "--format", "json", "--model", case["path"], "--phi", case["phi"],
            ], {"values": case["values"]}))
        # (preset, formula, expected exit code, atoms used); the axioms use a, b
        entail = (
            [(p, gen.iff(lhs, rhs), 0, 2) for p, lhs, rhs in gen.AXIOMS]
            + [(p, phi, 1, atoms) for p, phi, atoms in gen.REFUTED_AT_ONE]
            + [(p, phi, 0, atoms) for p, phi, atoms in gen.HOLDS_AT_ONE]
        )
        for i in range(self.MIX["entail"]):
            preset, phi, rc, atoms = entail[i % len(entail)]
            spec = gen.PRESETS[preset]
            cases_n = known.entailment_cases(
                spec["kind"], 1, spec["struct_m"], spec["truth_m"], atoms, 1
            )
            reqs.append(("entail", [
                "entail", "--format", "json", "--preset", preset,
                "--algebra", spec["algebra"], "--phi", phi, "--max-n", "1",
            ], {"preset": preset, "phi": phi, "rc": rc, "cases": cases_n}))
        for i in range(self.MIX["verify-rules"]):
            preset = presets[i % len(presets)]
            reqs.append(("verify-rules", [
                "verify-rules", "--format", "json", "--preset", preset,
                "--algebra", gen.PRESETS[preset]["algebra"], "--n", "1",
            ], {"preset": preset}))
        for i in range(self.MIX["check-separation"]):
            preset, algebra, kind, struct_m = self.SEPARATION[i % len(self.SEPARATION)]
            reqs.append(("check-separation", [
                "check-separation", "--format", "json", "--preset", preset,
                "--algebra", algebra, "--n", "2",
            ], {"pairs": known.separation_pairs(kind, 2, struct_m)}))
        for i in range(self.MIX["one-step"]):
            reqs.append(("one-step", [
                "one-step", "--format", "json", "--kind", self.ONE_STEP[i % 3],
                "--algebra", "L2", "--n", "2", "--trials", "50",
                "--seed", str(rng.randrange(1 << 31)),
            ], {}))
        for i in range(self.MIX["validate-algebra"]):
            reqs.append(("validate-algebra", [
                "validate-algebra", "--format", "json",
                "--algebra", self.ALGEBRAS[i % len(self.ALGEBRAS)],
            ], {}))
        for i in range(self.MIX["semiprimal"]):
            name, expected = self.SEMIPRIMAL[i % len(self.SEMIPRIMAL)]
            reqs.append(("semiprimal", [
                "semiprimal", "--format", "json", "--algebra", name,
            ], {"semiprimal": expected}))
        rng.shuffle(reqs)
        self.requests = reqs

    def setup(self, m):
        return None

    def items(self, m, state):
        cli = m["cli"]
        checks = {
            "reduce": self._expect_reduce,
            "eval": self._expect_eval,
            "entail": self._expect_entail,
            "verify-rules": self._expect_verify,
            "check-separation": self._expect_separation,
            "one-step": self._expect_one_step,
            "validate-algebra": self._expect_validate,
            "semiprimal": self._expect_semiprimal,
        }
        return [
            Item(
                " ".join(argv),
                lambda argv=argv: _cli_call(cli, argv),
                lambda result, kind=kind, info=info: checks[kind](m, result, info),
            )
            for kind, argv, info in self.requests
        ]

    # each expectation returns (error or None, cases reported by the reply)
    def _expect_reduce(self, m, result, info):
        reply = _reply(result, 0)
        model = m["jsonio"].model_from_json(self.reduce_models[info["preset"]])
        sig = model.config.signature
        phi = m["syntax"].parse(info["phi"], sig)
        normal = m["syntax"].parse(reply["normal_form"], sig)
        if not m["reduction"].is_normal_form(normal):
            return "reply is not in atomic-modality normal form", 0
        session = m["semantics"].EvalSession(model)
        if session.eval(phi) != session.eval(normal):
            return "normal form evaluates differently from the input", 0
        return None, 0

    def _expect_eval(self, m, result, info):
        reply = _reply(result, 0)
        if reply["values"] != info["values"]:
            return f"values {reply['values']}, pinned {info['values']}", 0
        return None, 0

    def _expect_entail(self, m, result, info):
        reply = _reply(result, info["rc"])
        if info["rc"] == 0:
            if reply["status"] != "holds-up-to-bound" or reply["cases"] != info["cases"]:
                return f"{reply['status']} with {reply['cases']} cases, expected holds-up-to-bound with {info['cases']}", reply["cases"]
            return None, reply["cases"]
        if reply["status"] != "fails":
            return f"status {reply['status']}, expected fails", reply["cases"]
        cx = reply["counterexample"]
        model = m["jsonio"].model_from_json(cx["model"])
        phi = m["syntax"].parse(info["phi"], model.config.signature)
        row = m["semantics"].EvalSession(model).eval(phi)
        if row[cx["state"]] == model.config.truth.m - 1:
            return "countermodel does not replay", reply["cases"]
        return None, reply["cases"]

    def _expect_verify(self, m, result, info):
        reply = _reply(result, 0)
        spec = gen.PRESETS[info["preset"]]
        expected = {}
        for lid, k in spec["liftings"].items():
            for op, arity in spec["ops"].items():
                expected[f"op {op} {lid}"] = known.rule_sweep_cases(
                    spec["kind"], 1, spec["struct_m"], spec["truth_m"], arity, k
                )
            expected[f"test t {lid}"] = known.rule_sweep_cases(
                spec["kind"], 1, spec["struct_m"], spec["truth_m"], None, k
            )
        got = {key: v for key, v in reply.items() if key != "gaps"}
        cases = sum(v["cases"] for v in got.values())
        if "gaps" in reply or set(got) != set(expected):
            return f"rules {sorted(got)}, gaps {reply.get('gaps')}; expected {sorted(expected)}", cases
        for key, v in got.items():
            if v["status"] != "holds" or v["cases"] != expected[key]:
                return f"{key}: {v['status']} with {v['cases']} cases, expected holds with {expected[key]}", cases
        return None, cases

    def _expect_separation(self, m, result, info):
        reply = _reply(result, 0)
        if reply["status"] != "holds" or reply["detail"]["pairs"] != info["pairs"]:
            return f"{reply['status']} over {reply['detail'].get('pairs')} pairs, expected holds over {info['pairs']}", reply["cases"]
        return None, reply["cases"]

    def _expect_one_step(self, m, result, info):
        reply = _reply(result, 0)
        if reply != {"ok": True, "trials": 50}:
            return f"reply {reply}", 0
        return None, 0

    def _expect_validate(self, m, result, info):
        reply = _reply(result, 0)
        if not reply["ok"] or not all(c["ok"] for c in reply["checks"]):
            return "a law fails on a builtin algebra", 0
        return None, 0

    def _expect_semiprimal(self, m, result, info):
        reply = _reply(result, 0 if info["semiprimal"] else 1)
        if reply["semiprimal"] is not info["semiprimal"]:
            return f"semiprimal {reply['semiprimal']}, expected {info['semiprimal']}", 0
        return None, 0


WORKLOADS = {w.name: w for w in (RuleSweep, Entail, Safety, Requests)}
