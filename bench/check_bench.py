"""Self-checks of the benchmark itself.

    python3 -m pytest -q bench/check_bench.py

The file name keeps it out of the repository's default test
collection; pytest collects it when it is named on the command line.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import kolchin as K  # noqa: E402
import kolchin.cli  # noqa: E402,F401

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.RUNNERS)
SMALL = 6  # instances per workload in the traced checks


def _heisenberg():
    a = K.Matrix(K.QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = K.Matrix(K.QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    return K.Representation(K.QQ, {"a": a, "b": b})


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_rep_files(tmp_path):
    for name in WORKLOADS:
        gen.generate(name, 7, str(tmp_path / f"{name}-a"))
        gen.generate(name, 7, str(tmp_path / f"{name}-b"))
        gen.generate(name, 8, str(tmp_path / f"{name}-c"))
        first = _files(tmp_path / f"{name}-a")
        assert first == _files(tmp_path / f"{name}-b")
        assert first != _files(tmp_path / f"{name}-c")


def test_finite_groups_stay_within_the_oracle_class_limit():
    classes = gen.properties("finite-fp-cli", gen.finite_fp(5))["nontrivial_class_histogram"]
    assert max(classes) <= 16


def test_heisenberg_span_counts():
    rep = _heisenberg()
    with tracer.Tracer() as t:
        cert = K.kolchin_flag(rep)
        degree = K.unitriangular_degree(rep)
    m = t.metrics()
    assert cert.degree == 3 and degree == 3
    assert m["reps.kolchin_flag.calls"]["value"] == 1
    assert m["algebra.span_closure.calls"]["value"] == 1
    assert m["algebra.ideal_closure.calls"]["value"] == 1
    assert m["algebra.ideal_power_chain.calls"]["value"] == 1
    # uninstall restored every original
    assert K.kolchin_flag.__module__ == "kolchin.reps"
    assert K.Matrix.__mul__.__qualname__ == "Matrix.__mul__"


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes", "bits")}


def test_traced_counts_repeat_exactly(tmp_path):
    for name in WORKLOADS:
        instances = gen.generate(name, 3, str(tmp_path / name))[:SMALL]
        results = [run.traced(K, workloads.RUNNERS[name], instances, str(tmp_path),
                              str(tmp_path / f"spans-{name}-{i}.jsonl"))
                   for i in range(2)]
        (m1, _, attempted, failed), (m2, _, _, _) = results
        assert attempted == SMALL and failed == 0
        assert _counts(m1) == _counts(m2)
        assert m1["trace.overhead_ratio"]["value"] > 0
        spans = (tmp_path / f"spans-{name}-0.jsonl").read_text().splitlines()
        assert spans and all(json.loads(s)["end"] >= json.loads(s)["start"] for s in spans)


def test_wrong_expected_answer_raises_failed_ratio(tmp_path):
    for name, spoil in (
        ("structure-q", lambda e: e.update(degree=e["degree"] + 1)),
        ("sampling-q", lambda e: e.update(degree=1)),
        ("finite-fp-cli", lambda e: e.update(p_group=not e["p_group"])),
    ):
        instances = gen.generate(name, 3, str(tmp_path / name))[:2]
        reps = [K.load_representation(i.path) for i in instances]
        _, failed, _ = run.timed_pass(K, workloads.RUNNERS[name], instances, reps,
                                      str(tmp_path))
        assert failed == 0, name
        bad = copy.deepcopy(instances[0])
        spoil(bad.expect)
        _, failed, _ = run.timed_pass(K, workloads.RUNNERS[name], [bad], reps, str(tmp_path))
        assert failed == 1, name


def _rebind(original, replacement):
    for mod in [m for n, m in sys.modules.items() if n == "kolchin" or n.startswith("kolchin.")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def test_sleeping_layer_shows_only_in_its_own_self_time(tmp_path):
    """A delay inside span_closure lands in its self time, and in no other
    layer's self time, although cli.main encloses it."""
    path = tmp_path / "heisenberg.json"
    path.write_text(json.dumps({"field": "Q", "dim": 3, "generators": {
        "a": [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "b": [[1, 0, 0], [0, 1, 1], [0, 0, 1]]}}))
    delay = 0.25
    argv = ["pi-check", str(path), "--max-degree", "4"]

    def traced_self_times():
        with tracer.Tracer() as t:
            assert workloads._cli(K, argv)[0] == 0
        return {k: v["value"] for k, v in t.metrics().items() if k.endswith("self_s")}

    base = traced_self_times()
    original = K.algebra.span_closure

    def sleepy(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    _rebind(original, sleepy)
    try:
        slow = traced_self_times()
    finally:
        _rebind(sleepy, original)
    grew = {k: slow[k] - base[k] for k in base}
    assert grew["algebra.span_closure.self_s"] >= 0.9 * delay
    others = {k: v for k, v in grew.items() if k != "algebra.span_closure.self_s"}
    assert max(others.values()) < 0.2 * delay, others


def test_scaling_divides_out_a_uniform_slowdown():
    times = [0.1, 0.2, 0.3]
    slow = run.scaled([2 * t for t in times], [2 * run.NOMINAL_KERNEL_S] * 4)
    assert slow == pytest.approx(times)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["structure-q", "sampling-q",
                                                      "finite-fp-cli"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
