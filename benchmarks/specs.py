"""Seeded inputs for the momentdet benchmark workloads.

Every input comes from ``random.Random(seed)`` alone, so one seed gives the
same specs on every machine.  The structure of each pool (how many specs of
each kind, how many factors, which families) is fixed; the seed draws the
continuous parameters, the rational shapes and the order.  A fixed structure
keeps the cost of a pool steady from seed to seed, which is what lets short
runs agree with each other.

Each spec carries the exact exponent sum it was built from, so the benchmark
checks conclusive verdicts against its own rule instead of the library's.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

M_DET = "M-det"
M_INDET = "M-indet"

# Factor exponents are built as multiples of 1/Q, each in [MIN_UNITS, MAX_UNITS],
# which keeps every GG/DGG shape beta = Q/units inside [0.1, 10].
Q = 40
MIN_UNITS = 4
MAX_UNITS = 400
# Indeterminate products keep beta <= 5: at beta = 20/3 and beta = 10 the
# hazard check of momentdet 0.1.0 raises OverflowError for every alpha and gamma
# (ROADMAP item 3).  The traced fuzz probe keeps counting such failures.
INDET_MIN_UNITS = 8

# decide-mix pool: spec kind -> count.  Every fifth spec of each kind but the
# band products (by structure, before the seeded shuffle) also takes the ratio
# route, so the ratio share is exactly 40 of 240 and the costliest operations
# are the same kinds for every seed.  Band products stay off the ratio route:
# with float shapes it decides from estimated rates, and in momentdet 0.1.0 it
# returns M-det for sums just above the threshold; the traced run counts that
# on its own (``band_ratio_probe``).
DECIDE_MIX_KINDS = {
    "det-product": 50,
    "indet-product": 60,
    "band-product": 40,
    "det-single": 25,
    "indet-single": 35,
    "slow-single": 30,
}
RATIO_EVERY = 5

# the boundary band of the engine is 0.005; float sums land strictly inside it
BAND_OFFSETS = (0.0005, 0.004)

# ROADMAP item 3 fuzz ranges, used only by the traced fuzz probe
FUZZ_RANGES = {"alpha": (1e-3, 1e3), "beta": (0.03, 30.0), "gamma": (0.01, 100.0),
               "mu": (1e-3, 1e3), "lambda": (1e-3, 1e3)}
FUZZ_SPECS = 100

STIELTJES, HAMBURGER, MIXED = "Stieltjes", "Hamburger", "Mixed"


@dataclass(frozen=True)
class Spec:
    """One generated product spec in spec-file form, with its exact exponent sum."""

    factors: tuple
    exponent_sum: Fraction
    threshold: int
    kind: str
    ratio: bool = False

    def document(self) -> dict:
        return {"version": 1, "factors": [dict(f) for f in self.factors]}

    def rule_verdict(self) -> str:
        """The exponent-sum rule: M-det at or below the threshold, M-indet above."""
        return M_DET if self.exponent_sum <= self.threshold else M_INDET


def threshold_of(families) -> int:
    """2 when every factor lives on the half line (GG, IG), else 1."""
    return 2 if set(families) <= {"GG", "IG"} else 1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _shape(rng: random.Random, beta: Fraction):
    """A rational shape, given as a string or as the float it rounds to."""
    return str(beta) if rng.random() < 0.5 else float(beta)


def _gg_like(rng, family: str, exponent: Fraction) -> dict:
    return {"family": family, "alpha": _log_uniform(rng, 0.1, 10.0),
            "beta": _shape(rng, 1 / exponent), "gamma": _log_uniform(rng, 0.1, 10.0)}


def _ig(rng) -> dict:
    return {"family": "IG", "mu": _log_uniform(rng, 0.1, 10.0),
            "lambda": _log_uniform(rng, 0.1, 10.0)}


def _split(rng: random.Random, total: int, parts: int, lo: int = MIN_UNITS) -> list[int]:
    """A random composition of ``total`` into parts within [lo, MAX_UNITS]."""
    if not lo * parts <= total <= MAX_UNITS * parts:
        raise ValueError(f"cannot split {total} units into {parts} parts")
    out = [lo] * parts
    rest = total - lo * parts
    weights = [rng.random() + 1e-3 for _ in range(parts)]
    for i in range(parts):
        share = rest if i == parts - 1 else min(rest, round(rest * weights[i] / sum(weights[i:])))
        take = min(share, MAX_UNITS - out[i])
        out[i] += take
        rest -= take
    for i in range(parts):  # anything capped away goes to parts with room
        take = min(rest, MAX_UNITS - out[i])
        out[i] += take
        rest -= take
    rng.shuffle(out)
    return out


def product(rng: random.Random, target: str, support: str, n: int, n_ig: int = 0,
            boundary: bool = False, kind: str = "") -> Spec:
    """A product of n factors whose exact exponent sum sits on the ``target`` side.

    ``target`` is "det" (sum at or below the threshold, exactly on it when
    ``boundary``), "indet" (above it, as little as the shapes allow when
    ``boundary``) or "band" (a float sum strictly inside the engine's
    boundary band).
    Mixed products hold at least one DGG; IG factors count as exponent 1.
    """
    thr = 2 if support == STIELTJES else 1
    n_shaped = n - n_ig
    fams = ["DGG" if support != STIELTJES else "GG"] * n_shaped
    if support == MIXED:
        fams = ["DGG"] + [rng.choice(("GG", "DGG")) for _ in range(n_shaped - 1)]
        if n_ig == 0 and n_shaped > 1 and "GG" not in fams:
            fams[-1] = "GG"
    budget = thr * Q - n_ig * Q
    if target == "det":
        lo = MIN_UNITS * n_shaped
        total = budget if boundary else rng.randint(lo, max(lo, budget - 1))
    elif target == "indet":
        extra = 1 if boundary else rng.randint(1, 40 * n_shaped)
        total = min(max(budget + extra, INDET_MIN_UNITS * n_shaped), MAX_UNITS * n_shaped)
    elif target == "band":
        total = budget
    else:
        raise ValueError(f"unknown target {target!r}")
    units = _split(rng, total, n_shaped, INDET_MIN_UNITS if target == "indet" else MIN_UNITS)
    exps = [Fraction(u, Q) for u in units]
    factors = [_gg_like(rng, fam, a) for fam, a in zip(fams, exps)]
    total_exact = sum(exps, Fraction(0)) + n_ig
    if target == "band":
        offset = rng.uniform(*BAND_OFFSETS) * rng.choice((-1.0, 1.0))
        j = rng.randrange(n_shaped)
        beta = 1.0 / (float(exps[j]) + offset)
        factors[j] = dict(factors[j], beta=beta)
        total_exact += 1 / Fraction(beta) - exps[j]
    factors += [_ig(rng) for _ in range(n_ig)]
    rng.shuffle(factors)
    return Spec(tuple(factors), total_exact, thr, kind or f"{target}-product")


def single(rng: random.Random, family: str, exponent: Fraction, kind: str) -> Spec:
    if family == "IG":
        return Spec((_ig(rng),), Fraction(1), 2, kind)
    return Spec((_gg_like(rng, family, exponent),), exponent, threshold_of([family]), kind)


_SUPPORTS = (STIELTJES, STIELTJES, HAMBURGER, MIXED)


def _decide_mix_spec(rng: random.Random, kind: str, i: int) -> Spec:
    """The i-th spec of a kind; the structure depends on (kind, i) only."""
    support = _SUPPORTS[i % len(_SUPPORTS)]
    n = 2 + i % 7
    if kind == "det-product":
        n_ig = (i // 4) % 2 if support == STIELTJES else 0
        return product(rng, "det", support, n, n_ig, boundary=i % 3 == 0)
    if kind == "indet-product":
        n_ig = min((i // 4) % 3, n - 1) if support != HAMBURGER else 0
        return product(rng, "indet", support, n, n_ig, boundary=i % 3 == 0)
    if kind == "band-product":
        n_ig = (i // 4) % 2 if support == STIELTJES else 0
        return product(rng, "band", support, n, n_ig, kind="band-product")
    if kind == "det-single":
        family = ("GG", "IG", "DGG", "GG", "DGG")[i % 5]
        hi = 80 if family == "GG" else Q
        return single(rng, family, Fraction(rng.randint(MIN_UNITS, hi), Q), kind)
    if kind == "indet-single":
        if i % 2 == 0:
            beta = rng.choice((Fraction(2, 5), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)))
            return single(rng, "GG", 1 / beta, kind)
        beta = rng.choice((Fraction(9, 10), Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)))
        return single(rng, "DGG", 1 / beta, kind)
    if kind == "slow-single":
        return single(rng, ("GG", "DGG")[i % 2], Fraction(rng.randint(7, 30)), kind)
    raise ValueError(f"unknown kind {kind!r}")


def interleave(groups: list[list]) -> list:
    """Merge lists so that every prefix holds each list in proportion to its size."""
    keyed = [((j + 0.5) / len(g), gi, item) for gi, g in enumerate(groups)
             for j, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: (t[0], t[1]))]


def decide_mix(seed: int) -> list[Spec]:
    """The decide-mix pool: 240 specs, 1-8 factors, three verdict classes."""
    rng = random.Random(seed)
    groups = []
    for kind, count in DECIDE_MIX_KINDS.items():
        group = []
        for i in range(count):
            s = _decide_mix_spec(rng, kind, i)
            ratio = kind != "band-product" and i % RATIO_EVERY == RATIO_EVERY - 1
            group.append(Spec(s.factors, s.exponent_sum, s.threshold, s.kind, ratio))
        rng.shuffle(group)
        groups.append(group)
    return interleave(groups)


def fuzz(seed: int) -> list[Spec]:
    """Specs from the ROADMAP item 3 fuzz ranges (1-4 factors, float shapes)."""
    rng = random.Random(seed * 7919 + 1)
    out = []
    for _ in range(FUZZ_SPECS):
        factors = []
        for _ in range(rng.randint(1, 4)):
            fam = rng.choice(("GG", "DGG", "IG"))
            if fam == "IG":
                factors.append({"family": "IG", "mu": _log_uniform(rng, *FUZZ_RANGES["mu"]),
                                "lambda": _log_uniform(rng, *FUZZ_RANGES["lambda"])})
            else:
                factors.append({"family": fam,
                                **{k: _log_uniform(rng, *FUZZ_RANGES[k])
                                   for k in ("alpha", "beta", "gamma")}})
        total = sum(Fraction(1) if f["family"] == "IG" else 1 / Fraction(f["beta"])
                    for f in factors)
        out.append(Spec(tuple(factors), total, threshold_of(f["family"] for f in factors),
                        "fuzz"))
    return out


# ---------------------------------------------------------------------------
# oracle-verify


@dataclass(frozen=True)
class OracleOp:
    """One step of the verify pipeline.

    ``kind`` is "moment" (quadrature against the closed form for one factor and
    order), "mc" (Monte Carlo cross-check of the whole spec) or "krein" (on a
    single factor, or on the stieltjes witness when ``spec`` is None).
    """

    kind: str
    spec: Spec | None
    factor: int = 0
    order: int = 0
    delta: float = 0.0
    mc_seed: int = 0


# IG(1,1) * IG(2,1) * Exp is always in the pool (M-indet by Theorem 7): the
# 4-sigma Monte Carlo test is known to flag it at some seeds.
FIXED_ORACLE_SPEC = Spec(({"family": "IG", "mu": 1, "lambda": 1},
                          {"family": "IG", "mu": 2, "lambda": 1},
                          {"family": "exp"}), Fraction(3), 2, "fixed")
MAX_MOMENT_ORDER = 12


# oracle-verify draws its factors around fixed centres, each scale parameter
# jittered by the seed within 10% either way.  Quadrature cost jumps with the
# parameters (a wider scan window, more subdivisions), so wide random draws
# would let the seed, not the code, set the cost of a run.
ORACLE_JITTER = 0.1


def _jitter(rng: random.Random, centre: float) -> float:
    return centre * math.exp(rng.uniform(-ORACLE_JITTER, ORACLE_JITTER))


def _centred(rng, family: str, beta: Fraction | None = None, **centres) -> dict:
    """A factor around fixed centres; ``lam`` stands for the IG ``lambda``."""
    f = {"family": family}
    if beta is not None:
        f["beta"] = _shape(rng, beta)
    for key, centre in centres.items():
        f["lambda" if key == "lam" else key] = _jitter(rng, centre)
    return f


def _oracle_specs(rng: random.Random) -> list[Spec]:
    """1-3 factor specs: the M-indet fixed product, an M-det IG single, an M-det
    GG*IG product exactly on the threshold, an inconclusive band product, and a
    GG and a DGG single."""
    band_beta = 1.0 / (0.5 + rng.uniform(*BAND_OFFSETS) * rng.choice((-1.0, 1.0)))
    band = (_centred(rng, "DGG", Fraction(2), alpha=0.5, gamma=0.8),
            {**_centred(rng, "GG", alpha=1.0, gamma=1.5), "beta": band_beta})
    return [
        FIXED_ORACLE_SPEC,
        Spec((_centred(rng, "IG", mu=1.5, lam=3.0),), Fraction(1), 2, "oracle"),
        Spec((_centred(rng, "GG", Fraction(1), alpha=1.0, gamma=2.0),
              _centred(rng, "IG", mu=0.8, lam=2.0)), Fraction(2), 2, "oracle"),
        Spec(band, Fraction(1, 2) + 1 / Fraction(band_beta), 1, "oracle"),
        Spec((_centred(rng, "GG", Fraction(1, 3), alpha=1.0, gamma=2.0),), Fraction(3), 2,
             "oracle"),
        Spec((_centred(rng, "DGG", Fraction(3, 2), alpha=0.7, gamma=1.5),), Fraction(2, 3), 1,
             "oracle"),
    ]


def _oracle_krein_singles(rng: random.Random) -> list[Spec]:
    """Two finite (GG beta 1/4, DGG beta 2/5) and two infinite (GG beta 2, IG) Krein cases."""
    return [Spec((_centred(rng, "GG", Fraction(1, 4), alpha=1.0, gamma=1.0),), Fraction(4), 2,
                 "krein"),
            Spec((_centred(rng, "DGG", Fraction(2, 5), alpha=1.0, gamma=1.0),), Fraction(5, 2), 1,
                 "krein"),
            Spec((_centred(rng, "GG", Fraction(2), alpha=1.0, gamma=1.0),), Fraction(1, 2), 2,
                 "krein"),
            Spec((_centred(rng, "IG", mu=1.0, lam=1.0),), Fraction(1), 2, "krein")]


def _krein_single(rng, i: int) -> Spec:
    """A single factor whose Krein integral is clearly finite or clearly infinite."""
    family = ("GG", "DGG", "GG", "IG")[i % 4]
    if family == "IG":
        return single(rng, "IG", Fraction(1), "krein")
    # finite iff beta < 1/2 (GG) or beta < 1 (DGG); stay a factor of 2 away
    edge = Fraction(1, 2) if family == "GG" else Fraction(1)
    scale = Fraction(rng.randint(2, 5), 10) if i % 2 == 0 else Fraction(rng.randint(20, 60), 10)
    return single(rng, family, 1 / (edge * scale), "krein")


def krein_expected(spec: Spec | None) -> str:
    """'finite' or 'infinite' for the Krein integral of a krein op's density."""
    if spec is None:
        return "finite"
    f = spec.factors[0]
    if f["family"] == "IG":
        return "infinite"
    edge = Fraction(1, 2) if f["family"] == "GG" else Fraction(1)
    return "finite" if Fraction(f["beta"]) < edge else "infinite"


def moment_orders(family: str) -> range:
    step = 2 if family == "DGG" else 1
    return range(step, MAX_MOMENT_ORDER + 1, step)


def oracle_verify(seed: int) -> list[OracleOp]:
    """The oracle-verify pool: six 1-3 factor specs, four Krein singles, one witness."""
    rng = random.Random(seed)
    specs = _oracle_specs(rng)
    moments, mcs = [], []
    for s in specs:
        for j, f in enumerate(s.factors):
            family = "GG" if f["family"] == "exp" else f["family"]
            moments += [OracleOp("moment", s, factor=j, order=k) for k in moment_orders(family)]
        mcs.append(OracleOp("mc", s, mc_seed=rng.randrange(2 ** 31)))
    kreins = [OracleOp("krein", k) for k in _oracle_krein_singles(rng)]
    kreins.append(OracleOp("krein", None, delta=_jitter(rng, 2.0)))
    for group in (moments, mcs, kreins):
        rng.shuffle(group)
    return interleave([moments, mcs, kreins])


# ---------------------------------------------------------------------------
# cli-cold


@dataclass(frozen=True)
class CliOp:
    """One ``momentdet`` invocation: argv after the spec file, plus the spec."""

    args: tuple
    spec: Spec


def cli_cold(seed: int) -> list[CliOp]:
    """Eight invocations over all three verdict classes, in seeded order."""
    rng = random.Random(seed)
    det = product(rng, "det", STIELTJES, 3, 1)
    indet = product(rng, "indet", MIXED, 3, 1)
    band = product(rng, "band", HAMBURGER, 2)
    ratio = product(rng, "indet", STIELTJES, 3, 1)
    slow = single(rng, "GG", Fraction(rng.randint(7, 30)), "slow-single")
    lin = single(rng, "GG", Fraction(rng.randint(MIN_UNITS, MAX_UNITS), Q), "lin")
    krein = _krein_single(rng, rng.randrange(4))
    ops = [CliOp(("analyze",), det), CliOp(("analyze",), indet),
           CliOp(("analyze",), band), CliOp(("analyze",), slow),
           CliOp(("analyze", "--ratio"), ratio), CliOp(("criterion", "growth"), indet),
           CliOp(("criterion", "lin"), lin), CliOp(("criterion", "krein"), krein)]
    rng.shuffle(ops)
    return ops
