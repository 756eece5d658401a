"""mvdl benchmark: one command, four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload rule-sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports mvdl from ``src/`` there and
nowhere else, and exits with code 2 when ``src/mvdl`` is missing.

``--trace 0`` measures with tracing off.  Each pass imports mvdl afresh
(every mvdl invocation pays cold caches), builds what the workload needs
(``setup_s``) and times each call.  Passes repeat until ``--seconds``
have gone by, and at least the workload's ``min_passes`` times; set-up
alone is repeated until there are SETUP_SAMPLES samples.  Every time is
taken out of the host's speed: it is scaled to the reference speed of
mvdlbench/hostspeed.py by samples taken while it ran, and the raw figures
are printed beside the metrics.  ``setup_s`` is the median set-up;
``wall_s`` is the sum over calls of each call's median time over the
passes.  On
``requests`` every CLI call is a request and latencies are percentiles of
those per-call medians; on the sweeps a request is a whole pass (all of the
workload's verdicts), because the checks in one pass differ in size by four
orders of magnitude.

``--trace 1`` runs one untraced pass and then one traced pass, wrapping
every public mvdl function from outside (see mvdlbench/tracer.py), and
reports the per-layer metrics plus the tracing overhead.

Every call has a known answer (mvdlbench/workloads.py); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it, starting with ``#``, record
the environment, every metric with its unit, and ``failed_frac``.  A full
record (per call, and the spans of a traced run) is written to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from mvdlbench import hostspeed, known  # noqa: E402
from mvdlbench.tracer import MODULES, Tracer  # noqa: E402
from mvdlbench.workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 15


def declared() -> dict:
    """BENCHMARK.json: the workloads with why each was chosen, and the
    metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fresh_mvdl() -> dict:
    """Drop every mvdl module and import the package again from SRC."""
    for name in [n for n in sys.modules if n == "mvdl" or n.startswith("mvdl.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mvdl")
    importlib.import_module("mvdl.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "mvdl":
        raise ImportError(f"mvdl was imported from {pkg.__file__}, not from {SRC}")
    mods = {short: sys.modules[f"mvdl.{short}"] for short in MODULES}
    mods["mvdl"] = pkg
    return mods


def timed_setup(workload, tracer: Tracer | None = None):
    """Import mvdl afresh and build what the workload needs: (modules,
    state, raw seconds, seconds at the reference speed)."""
    gc.collect()
    with hostspeed.Sampler(active=tracer is None) as sampler:
        t0 = time.perf_counter()
        m = fresh_mvdl()
        if tracer:
            tracer.install(m)
        state = workload.setup(m)
        raw = time.perf_counter() - t0 - sampler.busy
        if tracer:
            tracer.uninstall()
    return m, state, raw, raw * sampler.scale()


class Pass:
    """One fresh import, set-up, timed calls and checks.

    Times are kept raw (``*_raw``) and scaled to the reference speed of
    mvdlbench/hostspeed.py, from the host-speed samples taken during the
    set-up and during the calls; the metrics use the scaled ones.  A traced
    pass takes no samples (a sample would land inside the tracer's spans),
    and its scaled times are its raw ones."""

    def __init__(self, workload, tracer: Tracer | None = None):
        m, state, self.setup_raw_s, self.setup_s = timed_setup(workload, tracer)
        items = workload.items(m, state)
        outcomes = []
        clock = time.perf_counter
        if tracer:
            tracer.install(m)
        with hostspeed.Sampler(active=tracer is None) as sampler:
            for item in items:
                busy = sampler.busy
                t = clock()
                try:
                    result, error = item.call(), None
                except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                    result, error = None, f"{type(exc).__name__}: {exc}"
                outcomes.append((clock() - t - (sampler.busy - busy), result, error))
        if tracer:
            tracer.uninstall()
        self.speed_samples = sampler.samples
        k = sampler.scale()
        self.latencies_raw = [o[0] for o in outcomes]
        self.latencies = [t * k for t in self.latencies_raw]
        self.wall_raw_s = sum(self.latencies_raw)
        self.wall_s = sum(self.latencies)
        self.cases = 0
        self.calls = []
        for item, (seconds, result, error) in zip(items, outcomes):
            if error is None:
                try:
                    error, cases = item.expect(result)
                    self.cases += cases
                except Exception as exc:
                    error = f"unexpected reply: {type(exc).__name__}: {exc}"
            self.calls.append({"label": item.label, "seconds": seconds, "error": error})
        self.failed = sum(1 for c in self.calls if c["error"])


def environment(seed: int) -> dict:
    import mvdl

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "mvdl": mvdl.__version__,
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mvdl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(workload, seconds: float) -> tuple[dict, list[Pass], dict]:
    """End-to-end metrics at the reference speed, and the same timings raw."""
    start = time.perf_counter()
    setups: list[tuple[float, float]] = []  # (scaled, raw)
    passes: list[Pass] = []
    while True:
        p = Pass(workload)
        passes.append(p)
        setups.append((p.setup_s, p.setup_raw_s))
        if len(passes) >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        _, _, raw, scaled = timed_setup(workload)
        setups.append((scaled, raw))
    # every pass makes the same calls: take each call's median over passes,
    # so a burst of load on the host moves one sample of a call, not the sum
    per_call = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    per_call_raw = [statistics.median(ts) for ts in zip(*(p.latencies_raw for p in passes))]
    wall = sum(per_call)
    if workload.request == "call":
        latencies = sorted(per_call)
    else:  # the whole pass is one request
        latencies = [wall]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": wall,
        "cases_per_s": passes[0].cases / wall,
        "requests_per_s": len(latencies) / wall,
        "latency_p50_ms": 1000 * known.percentile(latencies, 0.50),
        "latency_p99_ms": 1000 * known.percentile(latencies, 0.99),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = {
        "setup_s": statistics.median(r for _, r in setups),
        "wall_s": sum(per_call_raw),
        "setup_samples": setups,
    }
    return metrics, passes, raw


def traced(workload) -> tuple[dict, list[Pass], dict]:
    plain = Pass(workload)
    tracer = Tracer()
    traced_pass = Pass(workload, tracer)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (traced_pass.wall_raw_s - plain.wall_raw_s) / plain.wall_raw_s
    return metrics, [plain, traced_pass], tracer.report()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mvdl" / "__init__.py").is_file():
        print(f"error: no mvdl sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    spec = declared()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == cls.name)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = cls(args.seed, workdir)
        if args.trace:
            metrics, passes, trace = traced(workload)
        else:
            metrics, passes, raw = measure(workload, args.seconds)
            trace = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    env = environment(args.seed)
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# workload {cls.name}: {why}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# passes {len(passes)}; calls per pass {len(passes[0].calls)}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"# raw (not scaled to the reference speed): setup_s = {raw['setup_s']:.6g} s,"
              f" wall_s = {raw['wall_s']:.6g} s")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} calls)")
    if cls.name == "entail" and not args.trace:
        share = raw["wall_s"] / cls.GATE_S
        flag = " ABOVE 80%" if share > 0.8 else ""
        print(f"# gate_share = {share:.3f} of criterion 12's {cls.GATE_S:.0f} s gate{flag}")
    for p in passes:
        for call in p.calls:
            if call["error"]:
                print(f"# FAILED {call['label']}: {call['error']}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": cls.name,
        "why": why,
        "env": env,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "passes": [
            {"setup_s": p.setup_s, "setup_raw_s": p.setup_raw_s, "wall_s": p.wall_s,
             "wall_raw_s": p.wall_raw_s, "speed_samples": p.speed_samples,
             "cases": p.cases, "calls": p.calls}
            for p in passes
        ],
    }
    if trace is not None:
        record["spans"] = trace
    else:
        record["raw"] = raw
    (OUT / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
