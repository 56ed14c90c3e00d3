"""The three benchmark workloads and the checks on their outputs.

A workload owns a pool of generated inputs and runs one operation at a time
(``run(i)``), returning the digest of the operation's output bytes, the
verdict class where there is one, and the reasons the output is wrong.  The
package is imported when a workload is built, so building one is part of the
set-up time the benchmark reports.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import specs

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120.0
MC_SAMPLES = 10 ** 6
MC_KMAX = 4
ORACLE_TOL = 1e-8

# exit codes promised by the CLI for a conclusion (analyze) or a status (criterion)
ANALYZE_EXIT = {"M-det": 0, "M-indet": 10}
CRITERION_EXIT = {"holds": 0, "fails": 10}
INCONCLUSIVE_EXIT = 20

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Outcome:
    digest: str
    reasons: list = field(default_factory=list)
    verdict: str | None = None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(report: dict) -> bytes:
    """Sorted-key compact JSON, as the CLI writes it."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.item()).encode()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list, env: dict, cwd: Path, stderr_path: Path):
    """Run a child to completion: (exit code, stdout bytes, wall seconds, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_factor(md, f: dict):
    family = f["family"]
    if family == "GG":
        return md.gg(f["alpha"], f["beta"], f["gamma"])
    if family == "DGG":
        return md.dgg(f["alpha"], f["beta"], f["gamma"])
    if family == "IG":
        return md.ig(f["mu"], f["lambda"])
    if family == "exp":
        return md.exponential()
    raise ValueError(f"unknown family {family!r}")


def build_product(md, spec: specs.Spec):
    return md.ProductSpec([build_factor(md, f) for f in spec.factors])


def verdict_problems(spec: specs.Spec, conclusion: str, ratio_conclusion: str | None) -> list:
    """Conclusive verdicts that contradict the spec's exact exponent-sum rule."""
    problems = []
    if conclusion in (specs.M_DET, specs.M_INDET) and conclusion != spec.rule_verdict():
        problems.append("decision:verdict contradicts the exponent-sum rule")
    if ratio_conclusion == specs.M_DET and spec.rule_verdict() != specs.M_DET:
        problems.append("decision:ratio route contradicts the exponent-sum rule")
    return problems


def krein_problems(status: str, expected: str) -> list:
    seen = {"holds": "finite", "fails": "infinite"}.get(status)
    if seen is not None and seen != expected:
        return ["criteria:krein classification contradicts the family rule"]
    return []


class Workload:
    name = ""
    layer = ""          # where an exception raised by an operation is charged

    tracer = None       # set by the runner for traced segments

    def __len__(self) -> int:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, i: int) -> Outcome:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def counters(self) -> dict:
        return {}

    def reset_counters(self) -> None:
        pass


class DecideMix(Workload):
    """Library analyze path: decide_product, to_dict, sorted-key JSON, plus the
    ratio route on every spec flagged for it."""

    name = "decide-mix"
    layer = "decision"

    def __init__(self, seed: int, root: Path, workdir: Path):
        import momentdet
        self.decision = momentdet.decision
        self.specs = specs.decide_mix(seed)
        self.products = [build_product(momentdet, s) for s in self.specs]

    def __len__(self):
        return len(self.specs)

    def warm_up(self):
        for i, s in enumerate(self.specs):
            if s.ratio and s.kind == "indet-product":
                self.run(i)
                return

    def run(self, i):
        spec, p = self.specs[i], self.products[i]
        v = self.decision.decide_product(p)
        report = {"verdict": v.to_dict()}
        ratio = None
        if spec.ratio:
            r = self.decision.ratio_route(p)
            report["ratio_route"] = r.to_dict()
            ratio = r.conclusion
        return Outcome(digest(report_bytes(report)), verdict_problems(spec, v.conclusion, ratio),
                       v.conclusion)


class OracleVerify(Workload):
    """The verify pipeline in-process: quadrature moments against the closed
    forms, the Monte Carlo cross-check, and Krein on singles and the witness."""

    name = "oracle-verify"
    layer = "verify"

    def __init__(self, seed: int, root: Path, workdir: Path):
        import momentdet
        self.md = momentdet
        self.ops = specs.oracle_verify(seed)
        self.products = {}
        for op in self.ops:
            if op.spec is not None and id(op.spec) not in self.products:
                self.products[id(op.spec)] = build_product(momentdet, op.spec)
        self.reset_counters()

    def __len__(self):
        return len(self.ops)

    def reset_counters(self):
        self.mc_rows = 0
        self.mc_rows_failed = 0

    def counters(self):
        return {"verify.mc_rows": self.mc_rows, "verify.mc_rows_failed": self.mc_rows_failed}

    def warm_up(self):
        for kind in ("moment", "mc", "krein"):
            self.run(next(i for i, op in enumerate(self.ops) if op.kind == kind))
        self.reset_counters()

    def run(self, i):
        md = self.md
        op = self.ops[i]
        if op.kind == "moment":
            d = self.products[id(op.spec)].factors[op.factor]
            support = md.verify.REAL_LINE if d.family == md.DGG else md.verify.POSITIVE_HALF_LINE
            dist = md.distributions
            q = md.verify.quadrature_log_moment(lambda x: dist.log_density(d, x), support, op.order)
            rel = abs(math.expm1(q - dist.log_moment(d, op.order)))
            problems = [] if rel < ORACLE_TOL else ["verify:oracle relative error >= 1e-8"]
            return Outcome(digest(repr((i, q)).encode()), problems)
        if op.kind == "mc":
            rep = md.verify.mc_cross_check(self.products[id(op.spec)], op.mc_seed,
                                           MC_SAMPLES, MC_KMAX)
            self.mc_rows += len(rep.rows)
            self.mc_rows_failed += sum(not r.ok for r in rep.rows)
            return Outcome(digest(repr((i, rep.rows)).encode()))
        if op.spec is None:
            cd = md.verify.build_counterexample(md.verify.STIELTJES_CASE, op.delta)
            rep = md.criteria.krein_quantity(cd.log_density, md.STIELTJES)
        else:
            d = self.products[id(op.spec)].factors[0]
            case = md.STIELTJES if d.support == md.STIELTJES else md.HAMBURGER
            dist = md.distributions
            rep = md.criteria.krein_quantity(lambda x: dist.log_density(d, x), case)
        return Outcome(digest(report_bytes(rep.to_dict())),
                       krein_problems(rep.status, specs.krein_expected(op.spec)))


class CliCold(Workload):
    """One ``python -m momentdet.cli`` process after another."""

    name = "cli-cold"
    layer = "cli"

    def __init__(self, seed: int, root: Path, workdir: Path):
        import momentdet.cli
        self.cli = momentdet.cli
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.ops = specs.cli_cold(seed)
        self.paths = []
        for i, op in enumerate(self.ops):
            path = workdir / f"cli-spec-{i}.json"
            path.write_text(json.dumps(op.spec.document(), sort_keys=True))
            self.paths.append(path)
        self.peak_child_rss = 0.0

    def __len__(self):
        return len(self.ops)

    def peak_rss_mb(self):
        return self.peak_child_rss

    def warm_up(self):
        """One in-process call per command kind, output discarded."""
        seen = set()
        for op, path in zip(self.ops, self.paths):
            if op.args not in seen:
                seen.add(op.args)
                with contextlib.redirect_stdout(io.StringIO()):
                    self.cli.main([*op.args, str(path)])

    def argv(self, i: int, trace_out: Path | None = None) -> list:
        op = self.ops[i]
        head = [sys.executable, "-m", "momentdet.cli"] if trace_out is None else \
            [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_out)]
        return head + [*op.args, str(self.paths[i])]

    def run(self, i):
        op = self.ops[i]
        trace_out = None
        if self.tracer is not None:
            trace_out = self.workdir / "cli-trace.json"
            trace_out.unlink(missing_ok=True)
        code, out, _, rss = run_child(self.argv(i, trace_out), self.env, self.root,
                                      self.workdir / "cli-stderr.txt")
        self.peak_child_rss = max(self.peak_child_rss, rss)
        if trace_out is not None and trace_out.exists():
            self.tracer.merge(json.loads(trace_out.read_text()), self.tracer.op)
        try:
            report = json.loads(out)
        except ValueError:
            tail = (self.workdir / "cli-stderr.txt").read_text(errors="replace")[-200:]
            return Outcome(digest(out), [f"cli:exit {code} without a report: {tail.strip()}"])
        problems = []
        verdict = None
        if op.args[0] == "analyze":
            verdict = report["conclusion"]
            expected_code = ANALYZE_EXIT.get(verdict, INCONCLUSIVE_EXIT)
            ratio = report.get("ratio_route", {}).get("conclusion")
            problems += verdict_problems(op.spec, verdict, ratio)
        else:
            expected_code = CRITERION_EXIT.get(report["status"], INCONCLUSIVE_EXIT)
            if op.args[1] == "krein":
                problems += krein_problems(report["status"], specs.krein_expected(op.spec))
        if code != expected_code:
            problems.append("cli:exit code disagrees with the report")
        return Outcome(digest(out), problems, verdict)


WORKLOADS = {w.name: w for w in (DecideMix, CliCold, OracleVerify)}
