import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run
from workloads import CATEGORIES, Library, Verify, Witness

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = CATEGORIES[0]  # n=5, m=4


def tiny_workloads(seed):
    return [
        Library(seed, categories=CATEGORIES[:2], per_l=1),
        Verify(seed, category=TINY, per_l=1),
        Witness(seed, category=TINY, per_l=1),
    ]


def test_smoke_run_of_all_three_workloads(tmp_path):
    for workload in tiny_workloads(5):
        workdir = tmp_path / workload.name
        workdir.mkdir()
        setup_s = run.set_up(workload, workdir)
        assert setup_s > 0
        done, metrics = run.measure(workload, 0.2)
        assert not done.failed, workload.name
        pool = len(workload.pool)
        rounds, rest = divmod(len(done.durations), pool)
        assert rounds >= 2 and rest == 0  # whole rounds, at least two
        assert len(done.kernel) == len(done.durations) and all(k > 0 for k in done.kernel)
        assert set(metrics) | {"setup_s"} == {name for name, _, _ in run.END_TO_END}
        assert metrics["correct_share"] == 1.0 and metrics["items_per_s"] > 0

        traced, per_layer = run.measure_traced(workload, tmp_path / f"{workload.name}.jsonl")
        assert not traced.failed, workload.name
        assert set(per_layer) == {name for name, _, _ in layers.catalogue()}
        assert len(traced.durations) == pool


def test_traced_counts_and_sizes_repeat_exactly(tmp_path):
    def counts():
        workload = Verify(9, category=TINY, per_l=1)
        workload.setup(tmp_path)
        _, per_layer = run.measure_traced(workload, tmp_path / "spans.jsonl")
        return {k: v for k, v in per_layer.items() if not k.endswith(("_s", "n5", "n10", "n20"))
                and k != "trace.overhead_share"}

    first = counts()
    assert first["formats.read_native.calls"] == 15  # three pairs, five bundles each
    assert first["echelon.validate_echelon.calls_tampered"] > 0
    assert first == counts()


def test_tampered_verify_bundles_are_rejected_and_checked(tmp_path):
    workload = Verify(3, category=TINY, per_l=1)
    workload.setup(tmp_path)
    for op in workload.pool:
        output = workload.run(op)
        assert workload.check(op, output)
        assert output[2].passed == (not op.kind.startswith("tamper"))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.catalogue()
    assert [w["name"] for w in spec["workloads"]] == ["library", "verify", "witness"]


def test_without_the_package_source_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
