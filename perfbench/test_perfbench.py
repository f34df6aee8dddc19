"""Tests of the benchmark itself (not of hambr).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, Tracer, self_times, traced_names  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_time_arithmetic_on_hand_built_tree():
    spans = [
        ("op", -1, 1, 0.0, 10.0),
        ("energy.global_potential", 0, 1, 1.0, 4.0),
        ("energy.class_free_energy", 1, 1, 2.0, 3.0),
        ("energy.class_free_energy", 1, 1, 3.0, 3.5),
        ("sampler.dshd_step", 0, 1, 5.0, 9.0),
    ]
    out = self_times(spans)
    assert out["op"] == (1, pytest.approx(10.0 - 3.0 - 4.0))
    assert out["energy.global_potential"] == (1, pytest.approx(3.0 - 1.0 - 0.5))
    assert out["energy.class_free_energy"] == (2, pytest.approx(1.5))
    assert out["sampler.dshd_step"] == (1, pytest.approx(4.0))
    assert sum(s for _, s in out.values()) == pytest.approx(10.0)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(1, 21)])
    assert (value, pct) == (10.0, 50.0)
    assert sum(d > value for d in range(1, 21)) == 10


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    assert set(run.LAYER_FUNCTIONS) <= set(traced_names())
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name
    if trace == "0":
        report = proc.stdout.rsplit("\n", 2)[0]
        for name in [*run.END_TO_END, "run_s_tail", "failed_share"]:
            assert name in report, name


def test_traced_default_counts_repeat_and_match_the_arithmetic(tmp_path):
    inputs = workloads.prepare("default", 0, tmp_path)
    state = workloads.setup(inputs)
    cfg = state["cfg"]
    runs = []
    for op in (1, 2):
        tracer = Tracer()
        with tracer.operation(op):
            workloads.run_op(state, tmp_path / f"op-{op}")
        calls = {name: c for name, (c, _) in tracer.op_summary(op).items()}
        runs.append((calls, dict(tracer.counters[op])))
    assert runs[0] == runs[1]
    calls, counters = runs[0]
    sampler_epochs = cfg.epochs - (cfg.t_filter - 1)  # the bank fills once the window does
    steps = sampler_epochs * cfg.sampler.n_chains * cfg.sampler.n_rounds \
        * cfg.sampler.steps_per_round
    assert (sampler_epochs, steps) == (28, 13_440)
    assert calls["sampler.dshd_step"] == counters["sampler.chain_steps"] == steps
    assert calls["energy.riemannian_grad_U"] == 2 * steps == 26_880
    assert calls["runner.run_experiment"] == 1
    assert set(COUNTERS) <= set(counters)
    assert 0.0 < counters["sampler.ridge_hit_ratio"] <= 1.0


def test_tracing_leaves_outputs_and_names_unchanged(tmp_path):
    from hambr import runner, sampler

    before = (runner.synthesize_outliers, sampler.riemannian_grad_U)
    inputs = workloads.prepare("synthesize", 5, tmp_path, tiny=True)
    state = workloads.setup(inputs)
    workloads.run_op(state, tmp_path / "plain")
    tracer = Tracer()
    with tracer.operation(1):
        assert sampler.riemannian_grad_U is not before[1]
        workloads.run_op(state, tmp_path / "traced")
    assert (runner.synthesize_outliers, sampler.riemannian_grad_U) == before
    assert workloads.check_op(state, tmp_path / "plain") == \
        workloads.check_op(state, tmp_path / "traced")


def test_output_checks_reject_bad_outputs(tmp_path):
    inputs = workloads.prepare("default", 2, tmp_path, tiny=True)
    state = workloads.setup(inputs)
    good = tmp_path / "good"
    workloads.run_op(state, good)
    workloads.check_op(state, good)

    off_sphere = tmp_path / "off_sphere"
    shutil.copytree(good, off_sphere)
    rows = [json.loads(x) for x in (good / "outliers.jsonl").read_text().splitlines()]
    rows[0]["outlier"] = [2.0 * v for v in rows[0]["outlier"]]
    (off_sphere / "outliers.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(workloads.CheckFailed, match="unit sphere"):
        workloads.check_op(state, off_sphere)

    not_finite = tmp_path / "not_finite"
    shutil.copytree(good, not_finite)
    lines = (good / "metrics.csv").read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["nan"])
    (not_finite / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="non-finite"):
        workloads.check_op(state, not_finite)


def test_seeded_inputs_repeat(tmp_path):
    made = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        inputs = workloads.prepare("synthesize", 9, tmp_path / sub, tiny=True)
        config = json.loads(Path(inputs["config"]).read_text())
        config.pop("output_dir")
        made.append((Path(inputs["bank"]).read_bytes(), config))
    assert made[0] == made[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "default", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
