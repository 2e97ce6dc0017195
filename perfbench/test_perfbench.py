"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0, m["name"]
    if trace == "1":
        for name in tracing.traced_names():
            assert result["metrics"][f"{name}.calls"]["value"] > 0, name


def test_same_seed_repeats_exactly():
    args = ("--workload", "codec", "--seed", "7", "--seconds", "0", "--trace", "0", "--smoke")
    first, second = (json.loads(_run(*args).stdout.strip().splitlines()[-2]) for _ in range(2))
    assert first["params_checksum"] == second["params_checksum"]
    assert first["seeds"] == {"train": 7, "heldout": 9, "codec": 13}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores_them():
    import mulco

    scopes, cli, train = (tracing.submodule(m) for m in ("scopes", "cli", "train"))
    encode, step = scopes.encode, train.AdamW.step
    assert callable(mulco.train) and tracing.submodule("train") is train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = scopes.encode
        assert wrapped is not encode
        assert cli.encode is wrapped and train.encode is wrapped and mulco.encode is wrapped
        assert cli.predict_mentions is train.predict_mentions is mulco.predict_mentions
        assert train.AdamW.step is not step
        sentence = tracing.submodule("corpus").Sentence(
            "abcd", (tracing.submodule("corpus").Mention(0, 2, "X"),)
        )
        scopes.coverage(sentence)  # calls encode and decode_hard through scopes globals
    finally:
        tracer.uninstall()
    assert scopes.encode is encode and cli.encode is encode and mulco.encode is encode
    assert train.AdamW.step is step
    totals = tracer.totals()
    assert totals["scopes.coverage"]["calls"] == 1
    assert totals["scopes.encode"]["calls"] == 4
    assert totals["scopes.decode_hard"]["calls"] == 4
    assert totals["corpus.validate_sentence"]["calls"] == 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert inner["calls"] == 2
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert 0.0 <= outer["self_s"] < outer["s"]
    share, root = tracer.self_time_under("outer", ("inner",))
    assert share == pytest.approx(inner["self_s"]) and root == pytest.approx(outer["s"])
