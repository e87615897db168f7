"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import source
import tracer
import worker
import workloads

BENCH = Path(__file__).resolve().parent
# Not used while the benchmark was written or tuned.
HELD_OUT_SEED = 90210


def _traced_layers(name, seed, items, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
         "--workdir", str(tmp_path / "work"), "--mode", "traced", "--items", str(items),
         "--spans", str(tmp_path / "spans.jsonl")],
        env=source.child_env(), capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


def _is_count(metric):
    return (metric.endswith(".calls") or metric.endswith("_per_item")
            or metric == "theta.newton.iterations")


@pytest.mark.parametrize("name,items", [("campaign", 3), ("classify", 6),
                                        ("membership", 24), ("cli", 6)])
def test_traced_counts_repeat_exactly(name, items, tmp_path):
    first = _traced_layers(name, 7, items, tmp_path)
    second = _traced_layers(name, 7, items, tmp_path)
    counts = {m: v for m, v in first.items() if _is_count(m)}
    assert counts == {m: second[m] for m in counts}
    assert counts["exactmat.det.calls"] > 0


def _bindings_of(originals):
    """Every place in a loaded tpflag module that binds one of
    ``originals``: module globals, class attributes along the MRO, and
    default arguments of functions and methods."""
    ids = {id(o) for o in originals}
    found = []

    def visit(where, value):
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, functools.partial):
            value = value.func
        if id(value) in ids:
            found.append(where)
        for default in (getattr(value, "__defaults__", None) or ()):
            if id(default) in ids:
                found.append(where + " default")
        for default in (getattr(value, "__kwdefaults__", None) or {}).values():
            if id(default) in ids:
                found.append(where + " default")

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "tpflag" or mod_name.startswith("tpflag.")):
            continue
        for attr, value in vars(module).items():
            visit(f"{mod_name}.{attr}", value)
            if isinstance(value, type) and value.__module__.startswith("tpflag"):
                for klass in value.__mro__:
                    for cattr, cvalue in vars(klass).items():
                        visit(f"{mod_name}.{attr}.{cattr}", cvalue)
    return found


def test_installed_tracer_leaves_no_unwrapped_binding():
    import tpflag.cli  # noqa: F401  (cli binds library names too)
    t = tracer.Tracer()
    t.install()
    try:
        originals = t.originals()
        assert len(originals) == len(tracer.SPAN_TARGETS) + len(tracer.COUNTER_TARGETS)
        assert _bindings_of(originals) == []
    finally:
        t.uninstall()
    assert _bindings_of(originals), "the scan must see the originals once restored"


HELD_OUT_ITEMS = {"campaign": 12, "classify": 24, "membership": 48, "cli": 6}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_has_no_failures(name, tmp_path):
    wl = workloads.make(name, HELD_OUT_SEED, tmp_path)
    wl.setup()
    result = worker.run_items(wl, items=HELD_OUT_ITEMS[name])
    assert result["failed"] == 0, result["reasons"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)


def test_links_name_known_metrics_and_workloads():
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = set(workloads.WORKLOADS)
    for link in json.loads((BENCH / "links.json").read_text())["links"]:
        assert set(link["layer_metrics"]) <= per_layer
        assert all(m in end_to_end and w in names for m, w in link["moves"])
        assert set(link["no_change"]) <= names


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(source.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
