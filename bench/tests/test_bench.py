"""Tests of the benchmark itself: span arithmetic, output checks, tracing install.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# ---------------------------------------------------------------------------
# Self-time arithmetic on synthetic spans.


def _span(name, start, end, parent=None, size=None, nodes=0):
    return Span(name, start, end, parent, "req", size, nodes)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("cli.main", 0.0, 10.0),                 # 0
        _span("train.train", 1.0, 4.0, parent=0),     # 1
        _span("autodiff.backward", 2.0, 3.0, parent=1),
        _span("data.load_table", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("experiments.error_sweep", 0.0, 10.0),
        _span("models.decode", 1.0, 5.0, parent=0),   # two pool threads at once
        _span("models.decode", 3.0, 7.0, parent=0),
        _span("rng.normals", 9.0, 12.0, parent=0),    # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == 10.0 - 6.0 - 1.0
    assert own[1:] == [4.0, 4.0, 3.0]


def test_summarize_sums_calls_sizes_and_steps():
    spans = [
        _span("train.train", 0.0, 0.5),
        _span("train.regularized_loss", 0.0, 0.1, parent=0, nodes=100),
        _span("autodiff.backward", 0.1, 0.2, parent=0, nodes=50),
        _span("train.regularized_loss", 0.2, 0.3, parent=0, nodes=100),
        _span("autodiff.backward", 0.3, 0.4, parent=0, nodes=50),
        _span("robustness.fisher_trace_node", 0.05, 0.1, parent=1, size=64),
        _span("autodiff.backward", 0.06, 0.07, parent=5, nodes=20),
    ]
    out = tracing.summarize(spans, tensor_nodes=321)
    assert out["train.steps"] == 2
    assert out["autodiff.nodes_per_step"] == 150.0
    assert out["autodiff.backward.calls"] == 3
    assert out["robustness.fisher_trace_node.rows"] == 64
    assert out["autodiff.tensor_nodes"] == 321
    assert abs(out["train.step_ms"] - 250.0) < 1e-9
    assert out["models.decode.calls"] == 0


# ---------------------------------------------------------------------------
# Corrupted outputs count as failed operations.

SWEEP_HEADER = ("# schema=fisherjscc.sweep.v1\n"
                "regime,psnr_db,family,error_rate,mean_regularizer,mean_expected_kl\n")
GOOD_SWEEP = SWEEP_HEADER + "".join(
    f"model,{p}.0,rayleigh,{r},0.001,0.01\n"
    for p, r in ((5, 0.09), (10, 0.03), (15, 0.01), (20, 0.003), (25, 0.001)))

TAYLOR_HEADER = ("# schema=fisherjscc.taylor.v1\n"
                 "sigma2,mean_expected_kl,kl_stderr,mean_regularizer,ratio,abs_gap\n")


def _taylor(ratios) -> str:
    sigma2 = (0.0031622776601683794, 0.01, 0.03162277660168379, 0.1)
    return TAYLOR_HEADER + "".join(f"{s!r},1e-4,1e-6,1e-4,{r},1e-6\n"
                                   for s, r in zip(sigma2, ratios))


def _fake_repeats(monkeypatch, tmp_path, files: dict[str, str]) -> None:
    """Run run.main with workers replaced by ones that write the given outputs."""
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "prepare_checkpoint", lambda work, seed, deadline: None)
    monkeypatch.setattr(run, "environment", lambda: {})

    def fake_worker(workdir, spec, deadline):
        (workdir / "out").mkdir(parents=True)
        for name, text in files.items():
            (workdir / "out" / name).write_text(text)
        return {"setup_exit": 0, "exit": 0, "setup_s": 0.2, "wall_s": 1.0,
                "cpu_s": 1.5, "peak_rss_mb": 90.0}

    monkeypatch.setattr(run, "run_worker", fake_worker)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_good_sweep_passes(monkeypatch, tmp_path, capsys):
    _fake_repeats(monkeypatch, tmp_path, {"sweep.csv": GOOD_SWEEP})
    assert run.main(["--workload", "sweep-rayleigh", "--seed", "1", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPEATS
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_error_rate_above_one_is_a_failed_operation(monkeypatch, tmp_path, capsys):
    bad = GOOD_SWEEP.replace("model,25.0,rayleigh,0.001", "model,25.0,rayleigh,1.5")
    _fake_repeats(monkeypatch, tmp_path, {"sweep.csv": bad})
    run.main(["--workload", "sweep-rayleigh", "--seed", "1", "--seconds", "0"])
    result = _result(capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_REPEATS


def test_non_monotone_sweep_is_a_failed_operation(monkeypatch, tmp_path, capsys):
    bad = GOOD_SWEEP.replace("model,20.0,rayleigh,0.003", "model,20.0,rayleigh,0.05")
    _fake_repeats(monkeypatch, tmp_path, {"sweep.csv": bad})
    run.main(["--workload", "sweep-rayleigh", "--seed", "1", "--seconds", "0"])
    assert _result(capsys)["failed"] == run.MIN_REPEATS


def test_taylor_ratio_outside_band_is_a_failed_operation(monkeypatch, tmp_path, capsys):
    _fake_repeats(monkeypatch, tmp_path, {"taylor.csv": _taylor((1.05, 1.25, 1.4, 2.3))})
    run.main(["--workload", "validate-kl", "--seed", "1", "--seconds", "0"])
    assert _result(capsys)["failed"] == run.MIN_REPEATS


def test_taylor_checks(tmp_path):
    path = tmp_path / "taylor.csv"
    path.write_text(_taylor((1.05, 1.11, 1.36, 2.34)))      # 15 and 10 dB are unbanded
    assert run.check_taylor(path) == []
    path.write_text(_taylor((1.05, 1.11, float("nan"), 2.34)))
    assert len(run.check_taylor(path)) == 1
    path.write_text(_taylor((0.7, 1.11, 1.36, -1.0)))
    assert len(run.check_taylor(path)) == 2


def test_output_bytes_differing_between_repeats_fail(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep.csv").write_text(GOOD_SWEEP)
    ok = {"setup_exit": 0, "exit": 0}
    outputs = {"sweep.csv": run.check_sweep}
    problems, digests = run.judge(ok, out, outputs, None)
    assert problems == []
    (out / "sweep.csv").write_text(GOOD_SWEEP.replace("0.001,0.01", "0.001,0.02"))
    problems, _ = run.judge(ok, out, outputs, digests)
    assert problems and "differ" in problems[0]
    problems, _ = run.judge({"setup_exit": 0, "exit": 3}, out, outputs, digests)
    assert problems == ["command exited 3"]


# ---------------------------------------------------------------------------
# Tracing install.


def test_absent_wrapped_name_does_not_stop_the_traced_run(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
        import fisherjscc.cli
        import tracing
        # As if a later commit removed these names.
        del fisherjscc.robustness.mean_fisher_trace
        del fisherjscc.train.adam_step
        extra = tracing.Target("models.gone", "models", "Gone.method")
        tracer = tracing.Tracer("test")
        absent = tracing.install(tracer, targets=tracing.TARGETS + (extra,))
        with open("run.ini", "w") as fh:
            fh.write("[run]\\nout = data\\n[data]\\nper_class_train = 5\\nper_class_test = 5\\n")
        code = fisherjscc.cli.main(["gen-data", "--config", "run.ini"])
        metrics = tracing.summarize(*tracing.load(tracing.dump(tracer)))
        print(json.dumps({{"absent": absent, "code": code, "metrics": metrics}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc["absent"]) == ["models.gone", "robustness.mean_fisher_trace",
                                     "train.adam_step"]
    assert doc["code"] == 0
    assert doc["metrics"]["data.make_rings.calls"] == 2
    assert doc["metrics"]["cli.main.calls"] == 1
    assert doc["metrics"]["robustness.mean_fisher_trace.calls"] == 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-fisher",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
