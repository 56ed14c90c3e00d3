"""Command-line front end.

Subcommands:
  analyze    decide a product spec; exit 0 M-det, 10 M-indet, 20 inconclusive
  criterion  run one named criterion; exit 0 holds, 10 fails, 20 inconclusive
  verify     oracle agreement + Monte Carlo; exit 0 all pass, 30 on failures

All reports are single JSON documents on stdout with sorted keys, so a given
spec, flags and seed always produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from . import criteria, decision, verify as verify_mod
from .criteria import LogMomentSequence
from .distributions import (
    DGG,
    IG,
    DistributionSpec,
    ProductSpec,
    chi_square,
    dgg,
    exponential,
    gg,
    ig,
    log_density,
    log_moment,
    std_normal,
)

EXIT_MDET = 0
EXIT_HOLDS = 0
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MINDET = 10
EXIT_FAILS = 10
EXIT_INCONCLUSIVE = 20
EXIT_VERIFY_FAILED = 30

SPEC_VERSION = 1

CRITERION_NAMES = ("growth", "ratio", "hardy", "cramer", "carleman", "krein", "lin")


class SpecError(ValueError):
    """Unusable spec file; the message names the offending field."""


# ---------------------------------------------------------------------------
# spec parsing


def _parse_factor(obj: dict, where: str) -> DistributionSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: each factor must be an object")
    family = obj.get("family")
    if family is None:
        raise SpecError(f"{where}.family: missing")
    tag = str(family).lower()

    def need(name, default=None):
        v = obj.get(name, default)
        if v is None:
            raise SpecError(f"{where}.{name}: missing for family {family!r}")
        return v

    try:
        if tag == "gg":
            return gg(need("alpha"), need("beta"), need("gamma"))
        if tag == "dgg":
            return dgg(need("alpha"), need("beta"), need("gamma"))
        if tag == "ig":
            return ig(need("mu"), need("lambda", obj.get("lam")))
        if tag in ("exp", "exponential"):
            return exponential(obj.get("rate", 1))
        if tag in ("chisq", "chi-square", "chi_square"):
            return chi_square(need("nu"))
        if tag in ("normal", "gaussian"):
            return std_normal()
        if tag in ("halfnormal", "half-normal", "half_normal"):
            return gg("1/2", 2, 1)
    except SpecError:
        raise
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from None
    raise SpecError(f"{where}.family: unknown family tag {family!r} "
                    f"(known: GG, DGG, IG, exp, chisq, normal, halfnormal)")


def load_spec(path: str) -> tuple[ProductSpec, dict]:
    """Parse a product spec file; returns the product and its overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"spec parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    version = doc.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(f"unsupported spec version {version!r} (expected {SPEC_VERSION})")
    factors = doc.get("factors")
    if not isinstance(factors, list) or not factors:
        raise SpecError("factors: must be a nonempty list")
    parsed = [_parse_factor(f, f"factors[{i}]") for i, f in enumerate(factors)]
    overrides = doc.get("overrides", {})
    if not isinstance(overrides, dict):
        raise SpecError("overrides: must be an object")
    known = {"k_horizon", "x0", "seed", "mc", "kmax", "schedule"}
    unknown = set(overrides) - known
    if unknown:
        raise SpecError(f"overrides: unknown key(s) {sorted(unknown)} "
                        f"(known: {sorted(known)})")
    return ProductSpec(parsed), overrides


def _echo_factor(d: DistributionSpec) -> dict:
    if d.family == IG:
        return {"family": IG, "mu": d.mu, "lambda": d.lam}
    out = {"family": d.family, "alpha": d.alpha, "beta": d.beta, "gamma": d.gamma}
    if d.beta_exact is not None:
        out["beta_exact"] = str(d.beta_exact)
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _emit(report: dict, pretty: bool) -> None:
    report = _jsonable(report)
    if pretty:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _config(overrides: dict, args) -> decision.DecisionConfig:
    """The decision settings from the flags, else the spec overrides, else
    the defaults; an invalid value is rejected naming its field."""
    k = args.k_horizon if args.k_horizon is not None else \
        overrides.get("k_horizon", criteria.DEFAULT_K_HORIZON)
    x0 = args.x0 if args.x0 is not None else overrides.get("x0", 1.0)
    if type(k) is not int or k < criteria.MIN_K_HORIZON:
        raise SpecError(f"k_horizon: must be an integer >= {criteria.MIN_K_HORIZON}, got {k!r}")
    if type(x0) not in (int, float) or not (math.isfinite(x0) and x0 > 0):
        raise SpecError(f"x0: must be a finite positive number, got {x0!r}")
    return decision.DecisionConfig(k_horizon=k, x0=float(x0))


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    product, overrides = load_spec(args.spec)
    cfg = _config(overrides, args)
    verdict = decision.decide_product(product, cfg)
    report = {
        "tool": "momentdet",
        "tool_version": __version__,
        "command": "analyze",
        "input": {"factors": [_echo_factor(d) for d in product.factors]},
        "k_horizon": cfg.k_horizon,
        "x0": cfg.x0,
        **verdict.to_dict(),
    }
    if args.ratio:
        report["ratio_route"] = decision.ratio_route(product, cfg).to_dict()
    if args.pretty:
        report["explanation"] = decision.explain(verdict).split("\n")
    _emit(report, args.pretty)
    return {decision.M_DET: EXIT_MDET,
            decision.M_INDET: EXIT_MINDET}.get(verdict.conclusion, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# criterion


def _criterion_report(args, product: Optional[ProductSpec], overrides: dict):
    name = args.name
    cfg = _config(overrides, args)
    if name in ("growth", "ratio", "hardy", "cramer", "carleman"):
        seq = LogMomentSequence.from_product(product, cfg.k_horizon)
        fn = {"growth": criteria.growth_exponent, "ratio": criteria.ratio_rate,
              "hardy": criteria.hardy_check, "cramer": criteria.cramer_check,
              "carleman": criteria.carleman_quantity}[name]
        return fn(seq)
    if name == "krein":
        schedule = overrides.get("schedule")
        if args.counterexample:
            cd = verify_mod.build_counterexample(args.counterexample, args.delta)
            return criteria.krein_quantity(cd.log_density, cd.support,
                                           schedule=schedule, x0=cfg.x0)
        if len(product.factors) != 1:
            raise SpecError("the krein criterion needs a single-factor spec "
                            "(no closed-form product density)")
        d = product.factors[0]
        return criteria.krein_quantity(lambda x: log_density(d, x), d.support,
                                       schedule=schedule, x0=cfg.x0)
    if name == "lin":
        if len(product.factors) != 1:
            raise SpecError("the lin criterion needs a single-factor spec")
        return criteria.condition_L_check(product.factors[0], x0=cfg.x0)
    raise SpecError(f"unknown criterion {name!r} (known: {', '.join(CRITERION_NAMES)})")


def cmd_criterion(args) -> int:
    if args.counterexample:
        product, overrides = None, {}
        if args.name != "krein":
            raise SpecError("--counterexample applies to the krein criterion only")
    else:
        if not args.spec:
            raise SpecError("a spec file is required unless --counterexample is given")
        product, overrides = load_spec(args.spec)
    rep = _criterion_report(args, product, overrides)
    report = {
        "tool": "momentdet",
        "tool_version": __version__,
        "command": "criterion",
        "name": args.name,
        **rep.to_dict(),
    }
    if product is not None:
        report["input"] = {"factors": [_echo_factor(d) for d in product.factors]}
    else:
        report["input"] = {"counterexample": args.counterexample, "delta": args.delta}
    _emit(report, args.pretty)
    return {criteria.HOLDS: EXIT_HOLDS,
            criteria.FAILS: EXIT_FAILS}.get(rep.status, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    product, overrides = load_spec(args.spec)
    seed = args.seed if args.seed is not None else overrides.get("seed", 0)
    n = args.mc or int(overrides.get("mc", 10 ** 6))
    kmax = args.kmax or int(overrides.get("kmax", 4))
    failures = []

    oracle_rows = []
    for i, d in enumerate(product.factors):
        step = 2 if d.family == DGG else 1
        worst = 0.0
        for k in range(step, 13, step):
            q = verify_mod.quadrature_log_moment(lambda x: log_density(d, x), d.support, k)
            rel = abs(np.expm1(q - log_moment(d, k)))
            worst = max(worst, rel)
        ok = worst < 1e-8
        oracle_rows.append({"factor_index": i, "factor": str(d),
                            "max_rel_error": worst, "ok": ok})
        if not ok:
            failures.append(f"oracle disagreement on factor {i} ({worst:.3g})")

    mc = verify_mod.mc_cross_check(product, seed, n, kmax)
    for row in mc.rows:
        if not row.ok:
            failures.append(f"Monte Carlo moment k={row.k} off by {row.z:.2f} standard errors")

    report = {
        "tool": "momentdet",
        "tool_version": __version__,
        "command": "verify",
        "input": {"factors": [_echo_factor(d) for d in product.factors]},
        "seed": seed,
        "n": n,
        "kmax": kmax,
        "oracle": oracle_rows,
        "monte_carlo": [{"k": r.k, "empirical": r.empirical, "analytic": r.analytic,
                         "std_error": r.std_error, "z": r.z, "ok": r.ok}
                        for r in mc.rows],
        "failures": failures,
        "ok": not failures,
    }
    _emit(report, args.pretty)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="momentdet",
        description="moment determinacy of products of independent random variables",
    )
    ap.add_argument("--version", action="version", version=f"momentdet {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        p.add_argument("--k-horizon", type=int, default=None, dest="k_horizon",
                       help="moment horizon K (default 200)")
        p.add_argument("--x0", type=float, default=None,
                       help="tail threshold for side-condition verification (default 1)")

    pa = sub.add_parser("analyze", help="decide M-det / M-indet for a product spec")
    pa.add_argument("spec", help="JSON product spec file")
    pa.add_argument("--ratio", action="store_true",
                    help="also run the moment-ratio determinacy route")
    common(pa)
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("criterion", help="run one named criterion")
    pc.add_argument("name", choices=CRITERION_NAMES)
    pc.add_argument("spec", nargs="?", default=None, help="JSON product spec file")
    pc.add_argument("--counterexample", choices=(verify_mod.STIELTJES_CASE,
                                                 verify_mod.HAMBURGER_CASE),
                    help="use a built-in witness density instead of a spec")
    pc.add_argument("--delta", type=float, default=2.0,
                    help="log-modulation exponent of the witness density (> 1)")
    common(pc)
    pc.set_defaults(fn=cmd_criterion)

    pv = sub.add_parser("verify", help="oracle agreement and Monte Carlo cross-check")
    pv.add_argument("spec", help="JSON product spec file")
    pv.add_argument("--mc", type=int, default=None, help="Monte Carlo sample size")
    pv.add_argument("--seed", type=int, default=None, help="sampler seed")
    pv.add_argument("--kmax", type=int, default=None, help="highest moment order checked")
    common(pv)
    pv.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SpecError, ValueError) as e:
        sys.stderr.write(f"momentdet: error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
