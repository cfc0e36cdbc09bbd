"""Self-tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest -q perfbench

They check that every binding of a wrapped function is patched, that the
small variant of each workload is deterministic and gives the same outputs
with and without tracing, that the result line matches BENCHMARK.json, and
that the benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(bench.ROOT / "src"))
import meklerkit  # noqa: E402

for _info in pkgutil.iter_modules(meklerkit.__path__):
    importlib.import_module("meklerkit." + _info.name)


def _bench_spec():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("tracer_cls", [tracer.SpanTracer, tracer.CountTracer])
def test_every_alias_of_a_wrapped_function_is_patched(tracer_cls):
    from meklerkit import groups, omni

    original = groups.closure_elements
    t = tracer_cls().install()
    try:
        assert t.unpatched_aliases() == []
        assert t.undo, "nothing was wrapped"
        if tracer_cls is tracer.SpanTracer:
            # the definition, the package re-export and the `from .groups import` copies
            for ns in (groups, omni, meklerkit):
                assert ns.closure_elements is not original
                assert ns.closure_elements.__wrapped__ is original
            # a binding the patcher could not see is reported
            omni._stale_alias = original
            assert t.unpatched_aliases() == ["meklerkit.omni._stale_alias"]
            del omni._stale_alias
    finally:
        t.restore()
    assert groups.closure_elements is original and omni.closure_elements is original


def test_every_wrapped_target_exists():
    for module, path, *_ in tracer.SPANS + tracer.COUNTS:
        owner, attr = tracer._owner_and_attr(module, path)
        assert attr in vars(owner), f"{module}.{path} is gone: the layer would vanish"


@pytest.mark.parametrize("workload", sorted(bench.INPUTS))
def test_small_workload_is_deterministic_and_trace_neutral(workload, tmp_path):
    goldens = json.loads(bench.GOLDENS.read_text())
    spec = bench.write_inputs(workload, tmp_path, 5, small=True)
    deadline = time.monotonic() + 300
    runs = {}
    for tag, mode in [("p", "plain"), ("s1", "spans"), ("s2", "spans"),
                      ("c1", "counts"), ("c2", "counts")]:
        run = bench.launch(workload, tmp_path, mode, deadline, tag)
        assert bench.check_run(workload, tmp_path, spec, 5, True, run, goldens) == [], tag
        runs[tag] = run
    assert len({r["digest"] for r in runs.values()}) == 1
    assert runs["s1"]["record"]["work"] == runs["s2"]["record"]["work"]
    assert runs["c1"]["record"]["work"] == runs["c2"]["record"]["work"]
    assert runs["c1"]["record"]["work"]  # the counters saw work


@pytest.mark.parametrize("trace", [0, 1])
def test_result_carries_exactly_the_declared_metrics(trace, tmp_path):
    spec = _bench_spec()
    record = bench.measure("graph-groups", 3, 1.0, bool(trace), small=True, work_dir=tmp_path)
    assert record["correct"] and record["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in record["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    spec = _bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench.INPUTS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-c5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
