"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import dataclasses
import json
import sys

import run
import theorem_inputs
from tracing import Tracer

sys.path.insert(0, str(run.SRC))


def esnlab_attributes():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "esnlab" or name.startswith("esnlab.")
            for attr, value in vars(module).items()}


def test_same_seed_gives_identical_inputs(tmp_path):
    first, _ = theorem_inputs.build(7, tmp_path)
    again, _ = theorem_inputs.build(7, tmp_path)
    other, _ = theorem_inputs.build(8, tmp_path)
    assert first == again
    assert first != other


def test_traced_pass_restores_every_attribute(tmp_path):
    cli, ops = run.setup(run.WORKLOADS["theorem"], 3, tmp_path)
    before = esnlab_attributes()
    tracer = Tracer(tmp_path / "spans")
    tracer.spool.mkdir()
    tracer.install()
    try:
        res = run.run_pass(cli, ops[:16], tracer)
    finally:
        tracer.uninstall()
    after = esnlab_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert res.failed == 0
    assert tracer.totals()["cli.main"][0] == 16


def test_failed_ratio_counts_wrong_expectations(tmp_path):
    cli, ops = run.setup(run.WORKLOADS["theorem"], 3, tmp_path)
    ops = ops[:8]
    assert run.run_pass(cli, ops).failed == 0
    ops[2] = dataclasses.replace(ops[2], code=1)
    ops[5] = dataclasses.replace(ops[5], check=theorem_inputs._expect_artifact({}))
    res = run.run_pass(cli, ops)
    assert (res.failed, res.attempted) == (2, 8)


def test_pool_worker_spans_are_collected(tmp_path):
    cli = run.import_esnlab()
    calls = {}
    for jobs in ("1", "2"):
        tracer = Tracer(tmp_path / f"spans{jobs}")
        tracer.spool.mkdir()
        tracer.install()
        try:
            code, _, _ = run.call(cli, ["search", "--order", "4", "--class", "inverse",
                                        "--jobs", jobs])
        finally:
            tracer.uninstall()
        tracer.collect()
        assert code == 0
        calls[jobs] = tracer.totals()["tables.is_canonical"][0]
    assert calls["1"] == calls["2"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
