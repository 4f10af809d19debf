"""The benchmark's own calls into tglrn: the tiny workloads of ``perfbench/smoke.py`` run
correct and report every end-to-end metric that ``BENCHMARK.json`` names.

Each run goes through the workload's set-up, timed loop and checks, so it reaches
``tape_counts`` (a traced forward and ``mae_loss``) and ``graph_checks`` (a build with
diagnostics) as the benchmark does.
"""

import json

import pytest

from test_spans import PERFBENCH, load_perfbench

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.fixture(scope="module")
def smoke():
    return load_perfbench("smoke")


@pytest.mark.parametrize("name", ["tiny_train_chain", "tiny_train_road", "tiny_predict_road"])
def test_tiny_workload_is_correct_and_reports_every_metric(smoke, tmp_path, name):
    (spec,) = [s for s in smoke.TINY if s.name == name]
    record = smoke.workload.run(spec, 0, 0.0, False, tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
