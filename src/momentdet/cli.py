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

from . import __version__
from . import criteria, decision, verify as verify_mod
from .distributions import (
    IG,
    MOMENT_STEP,
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
# the keys a spec document may hold
SPEC_KEYS = ("factors", "overrides", "version")

# numerical failures of the oracles, which verify reports and criterion turns
# into an error naming the witness's delta, never a traceback
NUMERICAL_FAILURES = (OverflowError, verify_mod.QuadratureError)

CRITERION_NAMES = tuple(decision.SPEC_CRITERIA)

# the witness's delta when --counterexample is given without --delta
DEFAULT_DELTA = 2.0


class SpecError(ValueError):
    """Unusable spec file; the message names the offending field."""


# ---------------------------------------------------------------------------
# settings


def _int_in(lo: int, hi: float = math.inf):
    return lambda v: type(v) is int and lo <= v <= hi


# verify's settings, name -> (default, check, requirement).  Each comes from
# its flag, else the spec's overrides, else the default; these are the only
# override keys, and every command checks them, so a spec is valid or invalid
# whatever the command.  No setting reaches a decision or a criterion.
SETTINGS = {
    "seed": (0, _int_in(0), "a nonnegative integer"),
    "mc": (10 ** 6, _int_in(verify_mod.MC_MIN_SAMPLES),
           f"an integer >= {verify_mod.MC_MIN_SAMPLES}"),
    "kmax": (4, _int_in(1, verify_mod.MC_KMAX), f"an integer from 1 to {verify_mod.MC_KMAX}"),
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

# family tag -> the keys a factor of that family may hold besides "family";
# "lam" is an alias of "lambda"
FACTOR_KEYS = {
    "gg": ("alpha", "beta", "gamma"),
    "dgg": ("alpha", "beta", "gamma"),
    "ig": ("mu", "lambda", "lam"),
    "exp": ("rate",),
    "chisq": ("nu",),
    "normal": (),
    "halfnormal": (),
}
TAG_ALIASES = {"exponential": "exp", "chi-square": "chisq", "chi_square": "chisq",
               "gaussian": "normal", "half-normal": "halfnormal", "half_normal": "halfnormal"}


def _parse_factor(obj: dict, where: str) -> DistributionSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: each factor must be an object")
    family = obj.get("family")
    if family is None:
        raise SpecError(f"{where}.family: missing")
    tag = str(family).lower()
    tag = TAG_ALIASES.get(tag, tag)
    if tag not in FACTOR_KEYS:
        raise SpecError(f"{where}.family: unknown family tag {family!r} "
                        f"(known: GG, DGG, IG, exp, chisq, normal, halfnormal)")
    known = ("family", *FACTOR_KEYS[tag])
    unknown = set(obj) - set(known)
    if unknown:
        raise SpecError(f"{where}: unknown key(s) {sorted(unknown)} for family {family!r} "
                        f"(known: {sorted(known)})")

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
            if "lambda" in obj and "lam" in obj:
                raise SpecError(f"{where}: 'lam' is an alias of 'lambda'; give one of them")
            return ig(need("mu"), need("lambda", obj.get("lam")))
        if tag == "exp":
            return exponential(obj.get("rate", 1))
        if tag == "chisq":
            return chi_square(need("nu"))
        return std_normal() if tag == "normal" else half_normal()
    except SpecError:
        raise
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from None


def _unique_keys(pairs: list) -> dict:
    """The dict of a JSON object; a key given twice, whose first value json
    would drop, is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecError(f"duplicate key {key!r} in a spec object")
        obj[key] = value
    return obj


def load_spec(path: str) -> tuple[ProductSpec, dict]:
    """Parse a product spec file; returns the product and its overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"spec parse error at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    unknown = set(doc) - set(SPEC_KEYS)
    if unknown:
        raise SpecError(f"spec document: unknown key(s) {sorted(unknown)} "
                        f"(known: {sorted(SPEC_KEYS)})")
    version = doc.get("version", SPEC_VERSION)
    if type(version) is not int or version != SPEC_VERSION:   # true and 1.0 equal 1
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


def _strict(o):
    """o with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(o, dict):
        return {k: _strict(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(v) for v in o]
    return str(float(o)) if isinstance(o, float) and not math.isfinite(o) else o


def _emit(args, inputs: dict, body: dict) -> None:
    """Write the common header and the command's fields."""
    report = {"tool": "momentdet", "tool_version": __version__, "command": args.command,
              "input": inputs, **body}
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    sys.stdout.write(json.dumps(_strict(report), sort_keys=True, allow_nan=False, **layout) + "\n")


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    product, overrides = load_spec(args.spec)
    _settings(args, overrides)   # no setting decides; an invalid one is still rejected
    verdict = decision.decide_product(product)
    report = verdict.to_dict()
    if args.ratio:
        report["ratio_route"] = decision.ratio_route(product).to_dict()
    if args.pretty:
        report["explanation"] = decision.explain(verdict).split("\n")
    _emit(args, _echo(product), report)
    return {decision.M_DET: EXIT_MDET,
            decision.M_INDET: EXIT_MINDET}.get(verdict.conclusion, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# criterion


def _witness_krein(case: str, delta: float):
    """The Krein ladder of a built-in witness density."""
    try:
        cd = verify_mod.build_counterexample(case, delta)
    except NUMERICAL_FAILURES as e:
        raise SpecError(f"delta: the witness at delta = {delta!r} cannot be "
                        f"normalized ({type(e).__name__}: {e})") from None
    return criteria.krein_quantity(cd.log_density, cd.support)


def cmd_criterion(args) -> int:
    if args.counterexample:
        if args.name != "krein":
            raise SpecError("--counterexample applies to the krein criterion only")
        if args.spec:
            raise SpecError("a spec file and --counterexample exclude each other")
        delta = DEFAULT_DELTA if args.delta is None else args.delta
        inputs = {"counterexample": args.counterexample, "delta": delta}
        rep = _witness_krein(args.counterexample, delta)
    elif args.delta is not None:
        raise SpecError("--delta applies to --counterexample only")
    elif not args.spec:
        raise SpecError("a spec file is required unless --counterexample is given")
    else:
        product, overrides = load_spec(args.spec)
        _settings(args, overrides)   # no setting is read; an invalid one is still rejected
        inputs = _echo(product)
        rep = decision.spec_criterion(product, args.name)
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
        step = MOMENT_STEP[d.support]
        worst = 0.0
        try:
            for k in range(step, 13, step):
                q = verify_mod.quadrature_log_moment(lambda x: log_density(d, x), d.support, k)
                rel = abs(math.expm1(q - log_moment(d, k)))
                worst = max(worst, rel)
        except NUMERICAL_FAILURES as e:
            failures.append(f"oracle failed on factor {i} at k={k}: {type(e).__name__}: {e}")
            continue
        ok = worst < 1e-8
        oracle_rows.append({"factor_index": i, "factor": str(d),
                            "max_rel_error": worst, "ok": ok})
        if not ok:
            failures.append(f"oracle disagreement on factor {i} ({worst:.3g})")

    try:
        mc_rows = verify_mod.mc_cross_check(product, s["seed"], s["mc"], s["kmax"]).rows
    except NUMERICAL_FAILURES as e:
        failures.append(f"Monte Carlo failed on the product: {type(e).__name__}: {e}")
        mc_rows = ()
    for row in mc_rows:
        if not row.ok:
            failures.append(f"Monte Carlo moment k={row.k} off by {row.z:.2f} standard errors")

    _emit(args, _echo(product), {
        "seed": s["seed"],
        "n": s["mc"],
        "kmax": s["kmax"],
        "oracle": oracle_rows,
        "monte_carlo": [{"k": r.k, "empirical": r.empirical, "analytic": r.analytic,
                         "std_error": r.std_error, "z": r.z, "ok": r.ok}
                        for r in mc_rows],
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
    pc.add_argument("--delta", type=float, default=None,
                    help="log-modulation exponent of the witness density (finite, > 1; "
                         f"default {DEFAULT_DELTA})")

    pv = sub.add_parser("verify", help="oracle agreement and Monte Carlo cross-check")
    pv.add_argument("spec", help="JSON product spec file")
    pv.add_argument("--mc", type=int, default=None, help="Monte Carlo sample size")
    pv.add_argument("--seed", type=int, default=None, help="sampler seed")
    pv.add_argument("--kmax", type=int, default=None, help="highest moment order checked")
    for p, fn in ((pa, cmd_analyze), (pc, cmd_criterion), (pv, cmd_verify)):
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
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
