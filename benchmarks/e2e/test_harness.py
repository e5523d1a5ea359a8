"""Checks of the harness itself (not of the program it measures).

Run explicitly; it is outside the tier-1 ``testpaths``:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import compare, inputs, names, spans, stats

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_name_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == names.benchmark_json()


def test_contract_limits():
    document = names.benchmark_json()
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert 1 <= document["run_seconds"] <= 60
    used = [w["name"] for w in document["workloads"]]
    used += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(used) == len(set(used)), "a name is used twice"
    for name in used:
        assert NAME.fullmatch(name), name
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]
    # Every run of every workload, set-ups included, inside the driver's
    # 3420 s: 22 runs per workload plus 4, at the measured ~21 s per run.
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 10) <= 3420


def test_span_self_time_is_duration_minus_covered_children():
    # parent 0..10; children 1..4 and 3..6 overlap (cover 1..6), 8..9.
    recorded = [
        ["op", 0.0, 10.0, None, "a"],
        ["x", 1.0, 4.0, 0, "a"],
        ["y", 3.0, 6.0, 0, "a"],
        ["z", 8.0, 9.0, 0, "a"],
        ["leaf", 1.5, 2.0, 1, "a"],
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [10.0 - 5.0 - 1.0, 2.5, 3.0, 1.0, 0.5])
    assert spans.unattributed_share(recorded) == pytest.approx(0.4)
    table = spans.per_op_ms(recorded)
    assert spans.ms_per_op(table, "x", 2) == pytest.approx(1500.0)


def test_tracer_nests_and_inherits_the_op_id():
    tracer = spans.Tracer()
    with tracer.span("op", op="7"):
        with tracer.span("stage"):
            with tracer.span("solve"):
                pass
        tracer.add("probe", 0.0, 1.0, parent=tracer.current, op="7")
    assert [s[spans.PARENT] for s in tracer.spans] == [None, 0, 1, 0]
    assert {s[spans.OP] for s in tracer.spans} == {"7"}
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)


def test_percentile_and_its_sample_count_rule():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == pytest.approx(50.5)
    assert stats.percentile(values, 0.9) == pytest.approx(90.1)
    assert stats.percentile([3.0], 0.9) == 3.0
    # p90 needs 100 samples to have ten beyond it; p50 needs 20.
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.percentile_supported(100, 0.9)
    assert not stats.percentile_supported(99, 0.9)
    assert stats.percentile_supported(20, 0.5)
    assert not stats.percentile_supported(3, 0.9)


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)


@pytest.mark.parametrize("workload", names.WORKLOAD_NAMES)
def test_a_seed_fixes_the_op_list_byte_for_byte(workload):
    first = json.dumps(inputs.op_list(workload, 7), sort_keys=True)
    again = json.dumps(inputs.op_list(workload, 7), sort_keys=True)
    other = json.dumps(inputs.op_list(workload, 8), sort_keys=True)
    assert first == again
    assert first != other


def test_serve_cold_never_repeats_an_instance():
    payloads = [json.dumps(op["payload"], sort_keys=True)
                for op in inputs.op_list("serve_cold", 0)]
    assert len(payloads) == len(set(payloads))
    assert all(0 < json.loads(p)["load"] <= 1 for p in payloads)


def test_serve_hot_mix():
    ops = inputs.op_list("serve_hot", 0)
    share = {cls: sum(op["class"] == cls for op in ops) / len(ops)
             for cls in ("duplicate", "refuted", "malformed")}
    # One round is 500 draws of the 88/10/2 mix.
    assert share["duplicate"] == pytest.approx(0.88, abs=0.04)
    assert share["refuted"] == pytest.approx(0.10, abs=0.04)
    assert 0 < share["malformed"] <= 0.05


def test_compare_verdicts_and_the_paired_rule():
    steady = [100.0 + 0.1 * i for i in range(10)]
    bound = names.BOUNDS["op_p50_ms"]
    inside = [v * (1 + bound / 2) for v in steady]
    outside = [v * (1 + bound * 1.5) for v in steady]
    assert compare.verdict("op_p50_ms", steady, inside) == "within"
    assert compare.verdict("op_p50_ms", steady, outside) == "REGRESSED"
    # A throughput regresses downwards.
    assert compare.verdict("ops_per_s", steady, outside) == "within"
    assert compare.verdict(
        "ops_per_s", steady,
        [v * (1 - 1.5 * names.BOUNDS["ops_per_s"]) for v in steady],
    ) == "REGRESSED"
    noisy = [100.0, 140.0, 90.0, 150.0, 95.0, 160.0, 85.0, 130.0, 99.0, 145.0]
    assert compare.verdict("op_p50_ms", noisy, noisy) == "unresolved"
    assert compare.verdict("op_p50_ms", noisy, [v / 3 for v in noisy]) \
        == "better"
    assert compare.gain("op_p50_ms", steady, [v * 0.9 for v in steady]) \
        .startswith("gain (10/10")
    assert compare.gain("op_p50_ms", steady, [v * 0.9999 for v in steady]) \
        .startswith("no gain")
    assert compare.gain("op_p50_ms", steady[:5], steady[:5]).startswith("-")
