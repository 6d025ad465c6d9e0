"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json

import pytest

import run
from spans import Tracer, layer_totals, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def tiny(**changes):
    sizes = dict(census_max_n=4, theorem_suite={}, monad_suite={"trivial": 1}, model_levels=2, sandwich=2)
    sizes.update(changes)
    return run.make_workloads(**sizes)


# -- a tiny pass emits every named metric ----------------------------------------


@pytest.mark.parametrize("workload", ["census", "theorem-suite", "model-squares"])
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    out = run.run(workload, seed=3, seconds=0, trace=False, workloads=tiny())
    result = out["result"]
    assert (result["correct"], result["failed"]) == (True, 0), out["details"]["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    details = out["details"]
    assert details["fail_ratio"] == 0.0 and details["env"]["seed"] == 3
    assert {"python", "nproc", "cpu_model", "load_1min_start", "load_1min_end"} <= set(details["env"])


@pytest.mark.parametrize("workload", ["census", "theorem-suite", "model-squares"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    out = run.run(workload, seed=4, seconds=0, trace=True, workloads=tiny())
    result = out["result"]
    assert result["correct"], out["details"]["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    balance = out["details"]["job_balance"]
    assert len(balance) == 3  # one traced job of each tiny workload
    for job in balance:
        assert job["remainder_s"] >= 0
        assert job["self_s"] + job["remainder_s"] == pytest.approx(job["wall_s"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["catalan.enumerate_level.simplices"] == 1 + 2 + 5 + 14 + 42
    assert values["catalan.nondegenerate_level.found"] == 1 + 1 + 2 + 4 + 9
    assert values["sset.maps.vm-trivial"] == 1 == values["sset.maps"]
    assert values["classify.verify_monad_remark.self_s.vm-trivial"] > 0
    assert values["catalan.act.calls"] == run.model_squares_reference(2, 2)["squares"]
    assert values["models.enumerate_square_ideals.candidates"] == 1 + 2 + 6
    assert values["classify.verify_theorem.self_s"] == 0  # no verify-theorem job at tiny size


def test_per_layer_list_matches_what_a_traced_run_reports():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()


# -- faults count as failed jobs and never abort the run --------------------------


def test_wrong_expected_count_is_a_failed_job():
    out = run.run("theorem-suite", seed=5, seconds=0, trace=False, workloads=tiny(monad_suite={"trivial": 2}))
    result = out["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "maps" in out["details"]["failures"][0]["problems"][0]


def test_differing_stdout_digest_is_a_failed_job():
    workloads = tiny(digests={"count --max-n 4": "0" * 64})
    out = run.run("census", seed=5, seconds=0, trace=False, workloads=workloads)
    assert out["result"]["failed"] == 1
    assert "sha256" in out["details"]["failures"][0]["problems"][0]


def _broken(argv):
    job = run.Job("broken", argv, argv, lambda text: [], False)
    return {"broken": {"jobs": [job], "inputs": []}}


def test_non_zero_exit_is_a_failed_job():
    out = run.run("broken", seed=6, seconds=0, trace=False, workloads=_broken(("-c", "import sys; sys.exit(3)")))
    assert (out["result"]["attempted"], out["result"]["failed"]) == (1, 1)
    assert out["details"]["failures"][0]["problems"] == ["exit code 3"]


def test_traceback_is_a_failed_job_even_with_exit_zero():
    argv = ("-c", "import sys; sys.stderr.write('Traceback (most recent call last):\\n')")
    out = run.run("broken", seed=6, seconds=0, trace=False, workloads=_broken(argv))
    assert out["details"]["failures"][0]["problems"] == ["traceback on stderr"]


# -- references ------------------------------------------------------------------


def test_references():
    assert [run.catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert run.motzkin(10) == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    full = run.model_squares_reference(5, 4)
    assert (full["squares"], full["sandwiches"]) == (144599, 12612)
    assert sum(run.catalan(n + 1) for n in range(11)) == 82499
    assert sum(run.motzkin(10)) == 3562


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile([1.0] * 10) is None
    assert run.high_percentile([float(v) for v in range(1, 21)]) == {"percentile": 50.0, "value": 10.0}


# -- self-time arithmetic ----------------------------------------------------------


def _span(job, sid, parent, name, start, end, **counts):
    return {"job": job, "id": sid, "parent": parent, "name": name, "start": start, "end": end, "counts": counts}


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("a", 0, None, "root", 0.0, 10.0),
        _span("a", 1, 0, "left", 1.0, 4.0, calls=3),
        _span("a", 2, 1, "leaf", 2.0, 3.0),
        _span("a", 3, 0, "right", 5.0, 9.0, calls=4),
        # a second job reuses the ids; its spans must not mix with the first
        _span("b", 0, None, "root", 20.0, 22.0),
        _span("b", 1, 0, "leaf", 20.5, 21.0),
    ]
    own = self_times(spans)
    assert own == {
        ("a", 0): 3.0,
        ("a", 1): 2.0,
        ("a", 2): 1.0,
        ("a", 3): 4.0,
        ("b", 0): 1.5,
        ("b", 1): 0.5,
    }
    assert sum(own.values()) == pytest.approx(10.0 + 2.0)
    seconds, counts = layer_totals(spans)
    assert seconds == {"root": 4.5, "left": 2.0, "leaf": 1.5, "right": 4.0}
    assert counts == {"calls": 7}


def test_overlapping_children_are_subtracted_once():
    spans = [
        _span("a", 0, None, "root", 0.0, 10.0),
        _span("a", 1, 0, "x", 1.0, 5.0),
        _span("a", 2, 0, "y", 3.0, 12.0),  # overlaps x and runs past the parent
    ]
    assert self_times(spans)[("a", 0)] == pytest.approx(1.0)


def test_tracer_records_nesting():
    tr = Tracer("job")
    with tr.span("outer") as c:
        c["n"] = 1
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert (outer["parent"], inner["parent"], outer["counts"]) == (None, 0, {"n": 1})
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
