"""Benchmark-side tracing of momentdet's public functions.

Nothing under ``src/`` is changed: ``Tracer.install`` replaces each traced
function by a timing wrapper in every ``momentdet`` module namespace that
holds it (``decision.log_hazard``, ``criteria.log_moment``,
``cli.log_density``, ...) and ``uninstall`` puts the originals back.

Layer-boundary calls are kept as spans (op, id, parent, name, start, end).
The high-frequency kernels of ``distributions`` are only aggregated per
(parent, name) into calls, points and time.  Self time is a call's duration
minus the time of the traced calls made inside it.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, qualified name, kind): kind "span" keeps every call as a span,
# "leaf" aggregates it; a leaf's points are the size of its x argument.
TARGETS = (
    ("distributions", "log_density", "leaf"),
    ("distributions", "log_moment", "leaf"),
    ("distributions", "log_tail", "leaf"),
    ("distributions", "log_tail_scaled", "leaf"),
    ("distributions", "log_hazard", "leaf"),
    ("distributions", "sample_product", "span"),
    ("criteria", "LogMomentSequence.from_distribution", "span"),
    ("criteria", "LogMomentSequence.from_product", "span"),
    ("criteria", "growth_exponent", "span"),
    ("criteria", "ratio_rate", "span"),
    ("criteria", "condition_L_check", "span"),
    ("criteria", "krein_quantity", "span"),
    ("decision", "decide_product", "span"),
    ("decision", "decide_single", "span"),
    ("decision", "ratio_route", "span"),
    ("verify", "quadrature_log_moment", "span"),
    ("verify", "build_counterexample", "span"),
    ("verify", "mc_cross_check", "span"),
    ("cli", "cmd_analyze", "span"),
    ("cli", "cmd_criterion", "span"),
    ("cli", "cmd_verify", "span"),
)

DECISION_ENTRIES = ("decision.decide_product", "decision.decide_single", "decision.ratio_route")


def _points(args, name: str) -> int:
    if name == "distributions.sample_product":
        return int(args[2])
    if name == "distributions.log_moment" or len(args) < 2:
        return 1
    x = args[1]
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if isinstance(x, (list, tuple)) else 1


class Tracer:
    """Spans and per-(parent, name) aggregates for one process."""

    def __init__(self):
        self.stack = []            # frames: [name, child_seconds, span_id]
        self.agg = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, points, self_s, total_s
        self.spans = []
        self.verdicts = defaultdict(list)   # decide_product conclusion -> durations
        self.errors = defaultdict(int)      # exception type escaping a decision entry
        self.integrand_evals = 0
        self.op = None
        self._next_id = 0
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, keep_span: bool):
        tracer = self
        counts_integrand = name == "verify.quadrature_log_moment"

        def counted(log_dens):
            def integrand(x):
                tracer.integrand_evals += 1
                return log_dens(x)
            return integrand

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, 0.0, span_id]
            if counts_integrand:
                args = (counted(args[0]),) + args[1:]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                if name in DECISION_ENTRIES and (parent is None or parent[0] not in DECISION_ENTRIES):
                    tracer.errors[type(e).__name__] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                rec = tracer.agg[(parent[0] if parent else None, name)]
                rec[0] += 1
                rec[1] += _points(args, name)
                rec[2] += dur - frame[1]
                rec[3] += dur
                if keep_span:
                    tracer.spans.append((tracer.op, span_id, parent[2] if parent else None,
                                         name, t0, t1))
                if name == "decision.decide_product" and result is not None:
                    tracer.verdicts[result.conclusion].append(dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded momentdet module that refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "momentdet" or n.startswith("momentdet."))]
        for mod_name, qual, kind in TARGETS:
            home = sys.modules.get(f"momentdet.{mod_name}")
            if home is None:
                continue
            name = f"{mod_name}.{qual}"
            if "." in qual:  # a classmethod on a class
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, original.__func__, kind == "span")
                setattr(cls, attr, classmethod(wrapped))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(home, qual)
            wrapped = self._wrap(name, original, kind == "span")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def state(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "aggregates": [[p, n, *rec] for (p, n), rec in sorted(
                self.agg.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "spans": [list(s) for s in self.spans],
            "verdict_durations": {k: list(v) for k, v in self.verdicts.items()},
            "errors": dict(self.errors),
            "integrand_evals": self.integrand_evals,
        }

    def merge(self, other: dict, op) -> None:
        """Fold in the state of a traced child process, tagging its spans with ``op``."""
        for parent, name, calls, points, self_s, total_s in other["aggregates"]:
            rec = self.agg[(parent, name)]
            rec[0] += calls
            rec[1] += points
            rec[2] += self_s
            rec[3] += total_s
        base = self._next_id
        for _, span_id, parent_id, name, t0, t1 in other["spans"]:
            self.spans.append((op, base + span_id, None if parent_id is None else base + parent_id,
                               name, t0, t1))
        self._next_id = base + 1 + max((s[1] for s in other["spans"]), default=0)
        for k, v in other["verdict_durations"].items():
            self.verdicts[k].extend(v)
        for k, v in other["errors"].items():
            self.errors[k] += v
        self.integrand_evals += other["integrand_evals"]

    def totals(self, name: str) -> tuple[int, int, float]:
        """(calls, points, self seconds) of a function; calls and points leave out
        the function's calls to itself (the element loop of an array call)."""
        calls = points = 0
        self_s = 0.0
        for (parent, n), (c, p, s, _) in self.agg.items():
            if n != name:
                continue
            self_s += s
            if parent != name:
                calls += c
                points += p
        return calls, points, self_s
