"""momentdet benchmark: one seeded workload, measured for a fixed time.

    python3 benchmarks/run.py --workload decide-mix --seed 1 --seconds 35 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run, and the spans are written to
``.bench_work/``.  The line before it is a JSON summary with the sample
counts, the failure reasons and every latency percentile that has at least
ten samples beyond it.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import specs
import workloads
from tracer import Tracer

# one BLAS/OpenMP thread everywhere; numpy is first imported after this
for _var in workloads.THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "momentdet"
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120
TIMING_REPEATS = 3
IMPORT_MODULES = ("scipy.special", "scipy.integrate", "scipy.optimize",
                  "momentdet.distributions", "momentdet.criteria", "momentdet.verify")
VERDICTS = ("M-det", "M-indet", "inconclusive")
ERROR_TYPES = ("OverflowError", "ValueError")
FAILURE_LAYERS = ("decision", "criteria", "verify", "cli", "repeat", "trace")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for k in ("log_tail", "log_tail_scaled", "log_hazard", "log_density"):
        units.update({f"distributions.{k}.calls": "count", f"distributions.{k}.points": "count",
                      f"distributions.{k}.self_pct": "%"})
    units.update({
        "distributions.log_moment.calls": "count",
        "distributions.log_moment.self_pct": "%",
        "distributions.sample_product.samples": "count",
        "distributions.sample_product.self_pct": "%",
        "criteria.LogMomentSequence.from_distribution.calls": "count",
        "criteria.LogMomentSequence.from_distribution.self_pct": "%",
        "criteria.growth_exponent.self_pct": "%",
        "criteria.ratio_rate.self_pct": "%",
        "criteria.condition_L_check.self_pct": "%",
        "criteria.krein_quantity.calls": "count",
        "criteria.krein_quantity.self_pct": "%",
    })
    for f in ("decide_product", "decide_single", "ratio_route"):
        units.update({f"decision.{f}.calls": "count", f"decision.{f}.self_pct": "%"})
    for v in VERDICTS:
        units[f"decision.verdicts.{v}"] = "count"
        units[f"decision.decide_product.time_pct.{v}"] = "%"
    units["decision.conclusive_ratio"] = "1"
    for prefix in ("decision.errors", "decision.fuzz.errors"):
        for e in ERROR_TYPES + ("other",):
            units[f"{prefix}.{e}"] = "count"
    units["decision.fuzz.attempted"] = "count"
    units["decision.band_ratio.attempted"] = "count"
    units["decision.band_ratio.contradictions"] = "count"
    units.update({
        "verify.quadrature_log_moment.calls": "count",
        "verify.quadrature_log_moment.self_pct": "%",
        "verify.integrand_evals": "count",
        "verify.mc_cross_check.calls": "count",
        "verify.mc_cross_check.self_pct": "%",
        "verify.mc_rows": "count",
        "verify.mc_rows_failed": "count",
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        "cli.command_s": "s",
    })
    for m in IMPORT_MODULES:
        units[f"import.{m}_s"] = "s"
    for layer in FAILURE_LAYERS:
        units[f"failed.{layer}"] = "count"
    units.update({"trace.overhead_frac": "1", "trace.wall_s": "s", "trace.ops": "count"})
    return units


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile, or None unless at least ten samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, -(-q * n // 100))  # ceil(q/100 * n) for an integer q in percent
    if n - rank < 10:
        return None
    return sorted_values[rank - 1]


class Measurement:
    """Closed loop, one client: the next operation starts when the last one ends."""

    def __init__(self, wl, seconds: float, reference: dict | None = None):
        self.latencies = []
        self.by_verdict = {v: [] for v in VERDICTS}
        self.reasons = Counter()
        self.digests = {}
        self.attempted = self.failed = 0
        start = time.perf_counter()
        deadline = start + seconds
        seq = 0
        while time.perf_counter() < deadline:
            i = seq % len(wl)
            if wl.tracer is not None:
                wl.tracer.op = seq
            seq += 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(i)
            except Exception as e:  # counted as a failed operation, never dropped
                self.failed += 1
                self.reasons[f"{wl.layer}:raised {type(e).__name__}"] += 1
                continue
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            if out.verdict in self.by_verdict:
                self.by_verdict[out.verdict].append(dt)
            problems = list(out.reasons)
            if self.digests.setdefault(i, out.digest) != out.digest:
                problems.append("repeat:output bytes differ from the first run")
            if reference is not None and reference.get(i, out.digest) != out.digest:
                problems.append("trace:output differs from the untraced run")
            if problems:
                self.failed += 1
                self.reasons.update(problems)
        self.elapsed = time.perf_counter() - start

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed

    def latency_ms(self, q: float):
        v = percentile(sorted(self.latencies), q)
        return None if v is None else v * 1e3


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import momentdet, generate the inputs and warm every operation kind."""
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, ROOT, WORKDIR)
    wl.warm_up()
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list:
    """Set-up time of fresh processes, one per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def cli_timings(seed: int) -> dict:
    """Interpreter start, package import and a full analyze process, plus the
    cumulative import time of the heavy modules from ``-X importtime``."""
    env = workloads.child_env(ROOT)
    spec = next(op.spec for op in specs.cli_cold(seed)
                if op.args == ("analyze",) and op.spec.kind == "indet-product")
    path = WORKDIR / "timing-spec.json"
    path.write_text(json.dumps(spec.document(), sort_keys=True))
    err = WORKDIR / "timing-stderr.txt"
    commands = {
        "cli.interpreter_s": [sys.executable, "-c", "pass"],
        "cli.import_s": [sys.executable, "-c", "import momentdet.cli"],
        "cli.command_s": [sys.executable, "-m", "momentdet.cli", "analyze", str(path)],
    }
    out = {}
    for name, argv in commands.items():
        out[name] = statistics.median(
            workloads.run_child(argv, env, ROOT, err)[2] for _ in range(TIMING_REPEATS))
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(TIMING_REPEATS):
        workloads.run_child([sys.executable, "-X", "importtime", "-c", "import momentdet.cli"],
                            env, ROOT, err)
        seen = {}
        for line in err.read_text().splitlines():
            parts = line.partition("import time:")[2].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    for m in IMPORT_MODULES:
        out[f"import.{m}_s"] = statistics.median(samples[m])
    return out


def fuzz_probe(fuzz: list) -> dict:
    """Decide every ROADMAP item 3 fuzz spec once and count what escapes."""
    import momentdet
    errors = Counter()
    for s in fuzz:
        try:
            with warnings.catch_warnings():  # overflow warnings are expected here
                warnings.simplefilter("ignore")
                momentdet.decide_product(workloads.build_product(momentdet, s))
        except Exception as e:  # the probe exists to count these
            name = type(e).__name__
            errors[name if name in ERROR_TYPES else "other"] += 1
    out = {f"decision.fuzz.errors.{e}": errors[e] for e in ERROR_TYPES + ("other",)}
    out["decision.fuzz.attempted"] = len(fuzz)
    return out


def band_ratio_probe(band: list) -> dict:
    """Take band products (float shapes, sums within 0.005 of the threshold)
    through the ratio route and count M-det verdicts the exact rule refutes."""
    import momentdet
    wrong = 0
    for s in band:
        verdict = momentdet.ratio_route(workloads.build_product(momentdet, s)).conclusion
        wrong += verdict == "M-det" and s.rule_verdict() != "M-det"
    return {"decision.band_ratio.attempted": len(band),
            "decision.band_ratio.contradictions": wrong}


def failure_counts(*runs) -> dict:
    counts = Counter()
    for r in runs:
        for reason, n in r.reasons.items():
            counts[reason.split(":", 1)[0]] += n
    return {f"failed.{layer}": counts[layer] for layer in FAILURE_LAYERS}


def traced_run(wl, args) -> tuple[dict, dict, list]:
    half = args.seconds / 2.0
    plain = Measurement(wl, half)
    tracer = Tracer()
    wl.reset_counters()
    tracer.install()
    wl.tracer = tracer
    try:
        traced = Measurement(wl, half, reference=plain.digests)
    finally:
        tracer.uninstall()
        wl.tracer = None
    wall = traced.elapsed

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    m = {}
    for name in per_layer_units():
        base, _, field = name.rpartition(".")
        if field in ("calls", "points", "samples", "self_pct"):
            calls, points, self_s = tracer.totals(base)
            m[name] = {"calls": calls, "points": points, "samples": points,
                       "self_pct": pct(self_s)}[field]
    total_verdicts = sum(len(tracer.verdicts[v]) for v in VERDICTS)
    for v in VERDICTS:
        m[f"decision.verdicts.{v}"] = len(tracer.verdicts[v])
        m[f"decision.decide_product.time_pct.{v}"] = pct(sum(tracer.verdicts[v]))
    conclusive = len(tracer.verdicts["M-det"]) + len(tracer.verdicts["M-indet"])
    m["decision.conclusive_ratio"] = conclusive / total_verdicts if total_verdicts else 0.0
    for e in ERROR_TYPES:
        m[f"decision.errors.{e}"] = tracer.errors.get(e, 0)
    m["decision.errors.other"] = sum(n for e, n in tracer.errors.items() if e not in ERROR_TYPES)
    probing = wl.name == "decide-mix"
    m.update(fuzz_probe(specs.fuzz(args.seed) if probing else []))
    m.update(band_ratio_probe([s for s in specs.decide_mix(args.seed)
                               if s.kind == "band-product"] if probing else []))
    m["verify.integrand_evals"] = tracer.integrand_evals
    m.update({"verify.mc_rows": 0, "verify.mc_rows_failed": 0, **wl.counters()})
    m.update(cli_timings(args.seed))
    m.update(failure_counts(plain, traced))
    m["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    m["trace.wall_s"] = wall
    m["trace.ops"] = traced.attempted
    state = tracer.state()
    state.update({"workload": wl.name, "seed": args.seed, "traced_wall_s": wall})
    (WORKDIR / f"trace-{wl.name}-seed{args.seed}.json").write_text(json.dumps(state))
    summary = {
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "decide_product_p50_ms": {
            v: statistics.median(tracer.verdicts[v]) * 1e3 if tracer.verdicts[v] else None
            for v in VERDICTS},
        "self_s": {n: tracer.totals(n)[2] for n in sorted({k[1] for k in tracer.agg})},
    }
    return m, summary, [plain, traced]


def untraced_run(wl, args) -> tuple[dict, dict, list]:
    setup = measure_setup(wl.name, args.seed)
    run = Measurement(wl, args.seconds)
    m = {
        "setup_s": statistics.median(setup),
        "ops_per_s": run.ops_per_s,
        "latency_p50_ms": run.latency_ms(50),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    summary = {
        "setup_samples_s": setup,
        "latency_samples": len(run.latencies),
        "latency_p90_ms": run.latency_ms(90),
        "latency_p99_ms": run.latency_ms(99),
        "latency_p50_ms_by_verdict": {
            v: statistics.median(d) * 1e3 if d else None for v, d in run.by_verdict.items()},
        "verdict_counts": {v: len(d) for v, d in run.by_verdict.items()},
    }
    return m, summary, [run]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no momentdet sources at {PACKAGE}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        sys.stderr.write("benchmark: momentdet does not compile\n")
        return 2

    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, WORKDIR)
    wl.warm_up()
    main_setup = time.perf_counter() - t0
    metrics, summary, runs = (traced_run if args.trace else untraced_run)(wl, args)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    reasons = Counter()
    for r in runs:
        reasons.update(r.reasons)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    summary.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "in_process_setup_s": main_setup,
                    "attempted": attempted, "failed": failed,
                    "failed_frac": failed / attempted if attempted else 0.0,
                    "failure_reasons": dict(reasons)})
    print(json.dumps({"summary": summary}, sort_keys=True))
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        sys.stderr.write(f"benchmark: no value for {missing}\n")
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
