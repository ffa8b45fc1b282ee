"""Smoke test of the benchmark itself (about two minutes, most of it baseline training).

    python3 -m pytest -q benchmarks/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402 - pins BLAS threads and puts src/ on the import path
import fingerprint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {name: unit for name, unit, _, _ in workloads.END_TO_END}


def _bench(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    script = (cwd / "benchmarks" / "run.py") if cwd else HERE / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd or HERE.parent,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)


def _bindings() -> dict:
    owners = [(module, attr) for module, attr, _ in tracing.PATCHES]
    owners += list(tracing.METHOD_PATCHES)
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_every_workload_prints_every_metric_with_its_unit():
    proc = _bench("--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {m: e["unit"] for m, e in result["metrics"].items()} == END_TO_END
        assert all(e["value"] > 0 for e in result["metrics"].values())
    table = proc.stdout.splitlines()
    for name in workloads.WORKLOADS:
        for metric, unit in END_TO_END.items():
            assert any(line.startswith(name) and metric in line and line.endswith(unit)
                       for line in table), (name, metric)


def test_wrong_expected_fingerprint_is_caught(tmp_path, capsys):
    pinned = fingerprint.load()
    pinned["ambiguous_refine"]["first_block"][0][3] += 1
    wrong = tmp_path / "fingerprint.json"
    wrong.write_text(json.dumps(pinned), encoding="utf-8")
    assert run.run_one("ambiguous_refine", None, 0.0, False, wrong) == 1
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "first served block[0]" in err


def test_traced_run_reports_every_layer_and_restores_the_wrappers(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    outcome = workloads.run(workloads.WORKLOADS["desk_recognize"], 52, 0.0, tmp_path,
                            fingerprint.load(), tracer)
    assert _bindings() == before
    assert outcome.problems == []
    assert list(outcome.layers) == [name for name, _, _ in tracing.PER_LAYER]
    layers = outcome.layers
    # the pinned desk block: 240/9/1 passes, one rejection, 2533 of 2610 useful
    assert [layers[f"recognizer.passes.{p}"] for p in (1, 2, 3)] == [240, 9, 1]
    assert layers["recognizer.rejected"] == 1
    assert layers["features.reextract_useful_ratio"] == pytest.approx(2533 / 2610)
    assert layers["mlp.gradients.calls"] == 102000


def test_wrappers_are_restored_when_the_run_fails():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert _bindings() != before
            raise RuntimeError("boom")
    assert _bindings() == before


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "desk_recognize", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
