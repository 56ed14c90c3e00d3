"""Tests of the benchmark's own input generator, tracer and output format.

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_specs.py
"""
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import momentdet
import run
import specs
import workloads
from tracer import Tracer

SEEDS = (0, 1, 2, 3)


def _verdicts(spec_list):
    return Counter(momentdet.decide_product(workloads.build_product(momentdet, s)).conclusion
                   for s in spec_list)


def _oracle_specs(seed):
    seen = {}
    for op in specs.oracle_verify(seed):
        if op.kind == "mc":
            seen[id(op.spec)] = op.spec
    return list(seen.values())


GENERATORS = {
    "decide-mix": specs.decide_mix,
    "oracle-verify": specs.oracle_verify,
    "cli-cold": specs.cli_cold,
    "fuzz": specs.fuzz,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(name):
    gen = GENERATORS[name]
    assert repr(gen(5)) == repr(gen(5))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_different_seeds_different_inputs(name):
    gen = GENERATORS[name]
    assert len({repr(gen(s)) for s in SEEDS}) == len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_workload_yields_all_three_verdict_classes(seed):
    classes = {"M-det", "M-indet", "inconclusive"}
    assert set(_verdicts(specs.decide_mix(seed))) == classes
    assert set(_verdicts(_oracle_specs(seed))) == classes
    analyzed = [op.spec for op in specs.cli_cold(seed) if op.args[0] == "analyze"]
    assert set(_verdicts(analyzed)) == classes


def test_decide_mix_structure():
    pool = specs.decide_mix(7)
    assert Counter(s.kind for s in pool) == Counter(specs.DECIDE_MIX_KINDS)
    assert sum(s.ratio for s in pool) == 40
    assert not any(s.ratio for s in pool if s.kind == "band-product")
    assert {len(s.factors) for s in pool} == set(range(1, 9))
    families = Counter(f["family"] for s in pool for f in s.factors)
    assert set(families) == {"GG", "DGG", "IG"}
    shapes = [f["beta"] for s in pool for f in s.factors if "beta" in f]
    assert any(isinstance(b, str) for b in shapes) and any(isinstance(b, float) for b in shapes)


def test_exponent_sums_sit_on_their_side_of_the_threshold():
    for s in specs.decide_mix(8):
        gap = s.exponent_sum - s.threshold
        if s.kind == "band-product":
            assert 0 < abs(gap) < Fraction(1, 200)
        elif s.kind == "det-product":
            assert gap <= 0
        elif s.kind == "indet-product":
            assert gap > 0


def test_exact_shapes_match_the_recorded_sum():
    for s in specs.decide_mix(9):
        if s.kind == "band-product":
            continue
        total = sum(Fraction(1) if f["family"] == "IG"
                    else 1 / Fraction(f["beta"]).limit_denominator(1000) for f in s.factors)
        assert total == s.exponent_sum


def test_oracle_pool_contains_the_fixed_product_and_the_witness():
    ops = specs.oracle_verify(3)
    assert any(op.spec is specs.FIXED_ORACLE_SPEC for op in ops)
    assert any(op.kind == "krein" and op.spec is None for op in ops)
    assert all(1 <= len(op.spec.factors) <= 3 for op in ops if op.spec is not None)
    assert {specs.krein_expected(op.spec) for op in ops if op.kind == "krein"} == \
        {"finite", "infinite"}


def test_percentile_needs_ten_samples_beyond():
    values = list(range(100))
    assert run.percentile(values, 90) == 89
    assert run.percentile(values, 99) is None
    assert run.percentile(list(range(1000)), 99) == 989


def test_tracer_counts_and_restores():
    p = workloads.build_product(momentdet, specs.decide_mix(1)[0])
    original = momentdet.decision.log_hazard
    tracer = Tracer()
    tracer.install()
    try:
        traced = momentdet.decide_product(p)
        assert momentdet.decision.log_hazard is not original
    finally:
        tracer.uninstall()
    assert momentdet.decision.log_hazard is original
    assert traced == momentdet.decide_product(p)
    calls, _, self_s = tracer.totals("decision.decide_product")
    assert calls == 1 and self_s >= 0.0
    for _, _, _, _, self_s, total_s in tracer.state()["aggregates"]:
        assert 0.0 <= self_s <= total_s + 1e-12


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
