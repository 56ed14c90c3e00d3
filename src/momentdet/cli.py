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
    half_normal,
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

# criteria computed from the product's moment sequence
SEQUENCE_CRITERIA = {"growth": criteria.growth_exponent, "ratio": criteria.ratio_rate,
                     "hardy": criteria.hardy_check, "cramer": criteria.cramer_check,
                     "carleman": criteria.carleman_quantity}
CRITERION_NAMES = (*SEQUENCE_CRITERIA, "krein", "lin")


class SpecError(ValueError):
    """Unusable spec file; the message names the offending field."""


# ---------------------------------------------------------------------------
# settings


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _int_in(lo: int, hi: float = math.inf):
    return lambda v: type(v) is int and lo <= v <= hi


# name -> (default, check, requirement).  Each setting comes from its flag,
# else the spec's overrides, else the default; these are the only override keys.
SETTINGS = {
    "k_horizon": (decision.DEFAULT_CONFIG.k_horizon, _int_in(criteria.MIN_K_HORIZON),
                  f"an integer >= {criteria.MIN_K_HORIZON}"),
    "x0": (decision.DEFAULT_CONFIG.x0, lambda v: _finite(v) and v > 0,
           "a finite positive number"),
    "seed": (0, _int_in(0), "a nonnegative integer"),
    "mc": (10 ** 6, _int_in(verify_mod.MC_MIN_SAMPLES),
           f"an integer >= {verify_mod.MC_MIN_SAMPLES}"),
    "kmax": (4, _int_in(1, verify_mod.MC_KMAX), f"an integer from 1 to {verify_mod.MC_KMAX}"),
    "schedule": (None, lambda v: v is None or (type(v) is list and all(map(_finite, v))),
                 "a list of finite numbers"),
}


def _settings(args, overrides: dict) -> dict:
    """Every setting, checked once; an invalid value is rejected naming its field."""
    values = {}
    for name, (default, valid, need) in SETTINGS.items():
        value = getattr(args, name, None)
        if value is None:
            value = overrides.get(name, default)
        if not valid(value):
            raise SpecError(f"{name}: must be {need}, got {value!r}")
        values[name] = value
    return values


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
            return half_normal()
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
    unknown = set(overrides) - SETTINGS.keys()
    if unknown:
        raise SpecError(f"overrides: unknown key(s) {sorted(unknown)} "
                        f"(known: {sorted(SETTINGS)})")
    return ProductSpec(parsed), overrides


# ---------------------------------------------------------------------------
# reports


def _echo(product: ProductSpec) -> dict:
    def factor(d: DistributionSpec) -> dict:
        if d.family == IG:
            return {"family": IG, "mu": d.mu, "lambda": d.lam}
        out = {"family": d.family, "alpha": d.alpha, "beta": d.beta, "gamma": d.gamma}
        if d.beta_exact is not None:
            out["beta_exact"] = str(d.beta_exact)
        return out
    return {"factors": [factor(d) for d in product.factors]}


def _emit(args, inputs: dict, body: dict) -> None:
    """Write the common header and the command's fields; NumPy scalars as Python values."""
    report = {"tool": "momentdet", "tool_version": __version__, "command": args.command,
              "input": inputs, **body}
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    sys.stdout.write(json.dumps(report, sort_keys=True, default=lambda o: o.item(),
                                **layout) + "\n")


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    product, overrides = load_spec(args.spec)
    s = _settings(args, overrides)
    cfg = decision.DecisionConfig(k_horizon=s["k_horizon"], x0=float(s["x0"]))
    verdict = decision.decide_product(product, cfg)
    report = {"k_horizon": cfg.k_horizon, "x0": cfg.x0, **verdict.to_dict()}
    if args.ratio:
        report["ratio_route"] = decision.ratio_route(product, cfg).to_dict()
    if args.pretty:
        report["explanation"] = decision.explain(verdict).split("\n")
    _emit(args, _echo(product), report)
    return {decision.M_DET: EXIT_MDET,
            decision.M_INDET: EXIT_MINDET}.get(verdict.conclusion, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# criterion


def _criterion_report(args, product: Optional[ProductSpec], s: dict):
    name = args.name
    if name in SEQUENCE_CRITERIA:
        return SEQUENCE_CRITERIA[name](LogMomentSequence.from_product(product, s["k_horizon"]))
    if args.counterexample:
        cd = verify_mod.build_counterexample(args.counterexample, args.delta)
        log_dens, support = cd.log_density, cd.support
    elif len(product.factors) != 1:
        raise SpecError(f"the {name} criterion needs a single-factor spec "
                        "(no closed-form product density)")
    elif name == "lin":
        return criteria.condition_L_check(product.factors[0], x0=s["x0"])
    else:
        d = product.factors[0]
        log_dens, support = (lambda x: log_density(d, x)), d.support
    return criteria.krein_quantity(log_dens, support, schedule=s["schedule"], x0=s["x0"])


def cmd_criterion(args) -> int:
    if args.counterexample:
        if args.name != "krein":
            raise SpecError("--counterexample applies to the krein criterion only")
        product, overrides = None, {}
        inputs = {"counterexample": args.counterexample, "delta": args.delta}
    elif not args.spec:
        raise SpecError("a spec file is required unless --counterexample is given")
    else:
        product, overrides = load_spec(args.spec)
        inputs = _echo(product)
    rep = _criterion_report(args, product, _settings(args, overrides))
    _emit(args, inputs, {"name": args.name, **rep.to_dict()})
    return {criteria.HOLDS: EXIT_HOLDS,
            criteria.FAILS: EXIT_FAILS}.get(rep.status, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    product, overrides = load_spec(args.spec)
    s = _settings(args, overrides)
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

    mc = verify_mod.mc_cross_check(product, s["seed"], s["mc"], s["kmax"])
    for row in mc.rows:
        if not row.ok:
            failures.append(f"Monte Carlo moment k={row.k} off by {row.z:.2f} standard errors")

    _emit(args, _echo(product), {
        "seed": s["seed"],
        "n": s["mc"],
        "kmax": s["kmax"],
        "oracle": oracle_rows,
        "monte_carlo": [{"k": r.k, "empirical": r.empirical, "analytic": r.analytic,
                         "std_error": r.std_error, "z": r.z, "ok": r.ok}
                        for r in mc.rows],
        "failures": failures,
        "ok": not failures,
    })
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

    pa = sub.add_parser("analyze", help="decide M-det / M-indet for a product spec")
    pa.add_argument("spec", help="JSON product spec file")
    pa.add_argument("--ratio", action="store_true",
                    help="also run the moment-ratio determinacy route")

    pc = sub.add_parser("criterion", help="run one named criterion")
    pc.add_argument("name", choices=CRITERION_NAMES)
    pc.add_argument("spec", nargs="?", default=None, help="JSON product spec file")
    pc.add_argument("--counterexample", choices=(verify_mod.STIELTJES_CASE,
                                                 verify_mod.HAMBURGER_CASE),
                    help="use a built-in witness density instead of a spec")
    pc.add_argument("--delta", type=float, default=2.0,
                    help="log-modulation exponent of the witness density (> 1)")

    pv = sub.add_parser("verify", help="oracle agreement and Monte Carlo cross-check")
    pv.add_argument("spec", help="JSON product spec file")
    pv.add_argument("--mc", type=int, default=None, help="Monte Carlo sample size")
    pv.add_argument("--seed", type=int, default=None, help="sampler seed")
    pv.add_argument("--kmax", type=int, default=None, help="highest moment order checked")
    for p, fn in ((pa, cmd_analyze), (pc, cmd_criterion), (pv, cmd_verify)):
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        if p is not pv:
            p.add_argument("--k-horizon", type=int, default=None, dest="k_horizon",
                           help=f"moment horizon K (default {SETTINGS['k_horizon'][0]})")
            p.add_argument("--x0", type=float, default=None,
                           help="tail threshold for side-condition verification "
                                f"(default {SETTINGS['x0'][0]:g})")
        p.set_defaults(fn=fn)
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
