"""Self-test of farmbench: a reduced-size pass over every workload.

Run by explicit path (tier-1's ``testpaths`` does not include it):

    python3 -m pytest benchmarks/farmbench/test_farmbench.py -q

The pass is flagged ``"smoke": true`` and never reaches history.  It
checks the benchmark's own contract - that every workload and metric
declared in BENCHMARK.json is emitted exactly once with its unit - not the
program's speed.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402

RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def run(*args, cwd=catalogue.REPO_ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def bench():
    return catalogue.load_benchmark()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke pass over all six workloads."""
    history = os.path.join(HERE, "out", "history.jsonl")
    before = os.path.getsize(history) if os.path.exists(history) else None
    out = str(tmp_path_factory.mktemp("farmbench") / "results.json")
    done = run("--smoke", "--reps", "2", "--traced", "--out", out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    after = os.path.getsize(history) if os.path.exists(history) else None
    with open(out) as handle:
        document = json.load(handle)
    return {"path": out, "document": document,
            "last_line": json.loads(done.stdout.strip().splitlines()[-1]),
            "history_untouched": before == after}


def test_declaration_is_within_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_catalogue_covers_the_declaration(bench):
    declared = {w["name"] for w in bench["workloads"]}
    assert declared == set(catalogue.SIZES) == set(catalogue.SMOKE_SIZES)
    layer_names = {m["name"] for m in bench["per_layer"]}
    assert layer_names == set(catalogue.LAYER_MOVES)
    assert {name.rsplit(".", 1)[0] for name in layer_names} \
        <= set(catalogue.SHARE_LAYERS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    named = catalogue.named_metrics(bounds)
    assert len(named) == 10
    speed = ("seed_events_per_s", "kernel_events_per_s", "solve_s",
             "resolve_p50_ms")
    for workload in declared:
        assert sum(m.applies(workload) for m in named
                   if m.name in speed) == 1, workload


def test_every_workload_and_metric_emitted_once(bench, smoke):
    results = smoke["document"]["workloads"]
    assert list(results) == [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, result in results.items():
        assert result["smoke"] is True
        assert result["failed"] == 0, result["failures"]
        assert {k: v["unit"] for k, v in result["contract"].items()} == e2e
        assert all(v["value"] > 0 for v in result["contract"].values())
        assert set(result["layers"]["values"]) == set(layers), name
        assert result["layers"]["units"] == layers
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        expected = {m.name for m in catalogue.named_metrics(bounds)
                    if m.applies(name)}
        assert set(result["named"]) == expected
    # The traced suite's last line nests the same per-layer set.
    for name, metrics in smoke["last_line"]["metrics"].items():
        assert {k: v["unit"] for k, v in metrics.items()} == layers
    assert smoke["last_line"]["correct"] is True
    assert smoke["last_line"]["failed"] == 0


def test_smoke_pass_never_reaches_history(smoke):
    assert smoke["document"]["smoke"] is True
    assert smoke["history_untouched"]


def test_dominant_layers_are_engaged(smoke):
    """Each workload exercises the layer its reason names (sizes are too
    small here to compare shares, so only engagement is checked)."""
    layers = {name: result["layers"]["values"]
              for name, result in smoke["document"]["workloads"].items()}
    assert layers["fleet_poll"]["almanac.vectorized_frac"] > 0.5
    assert layers["fleet_poll"]["switchsim.sample_packets_busy_s"] == 0
    assert layers["task_portfolio"]["switchsim.sample_packets_busy_s"] > 0
    assert layers["task_portfolio"]["obs.scrapes_total"] == 0
    guarded = layers["task_portfolio_guarded"]
    assert guarded["obs.scrapes_total"] > 0
    assert guarded["core.ft.heartbeats_total"] > 0
    assert guarded["core.bus.retransmissions_total"] > 0
    assert guarded["remediation.executed_total"] >= 1
    assert layers["placement_fig7"]["sim.events_total"] == 0
    assert layers["placement_churn"]["placement.incremental_used_frac"] > 0
    assert layers["timer_storm"]["sim.cancelled_total"] > 0


def test_traced_self_times_nest(bench, smoke):
    del smoke  # the fixture wrote the traces
    for workload in bench["workloads"]:
        path = os.path.join(HERE, "out", "smoke",
                            f"trace_{workload['name']}.json")
        with open(path) as handle:
            trace = json.load(handle)
        recorder = tracing.SpanRecorder(trace["workload"], trace["rep"])
        recorder.spans = trace["spans"]
        children = [0] * len(recorder.spans)
        for span in recorder.spans:
            assert span[tracing.END_NS] >= span[tracing.START_NS]
            parent = span[tracing.PARENT]
            if parent >= 0:
                assert parent < len(recorder.spans)
                children[parent] += (span[tracing.END_NS]
                                     - span[tracing.START_NS])
        for span, covered, own in zip(recorder.spans, children,
                                      recorder.self_times_ns()):
            assert covered <= span[tracing.END_NS] - span[tracing.START_NS]
            assert own >= 0


def test_compare_against_itself_reports_no_regression(smoke):
    rows = compare.compare(compare.load(smoke["path"]),
                           compare.load(smoke["path"]))
    # Two tiny repetitions can spread wider than a bound ("unresolved"),
    # but a set never regresses against itself, and exact metrics match.
    assert rows and all(row["verdict"] in ("within bound", "unresolved")
                        for row in rows)
    assert all(row["verdict"] == "within bound" for row in rows
               if row["bound"] == "exact")
    assert compare.main(["compare.py", smoke["path"], smoke["path"]]) == 0


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, [v * 0.5 for v in steady],
                           "lower", 0.1) == "improved"
    assert compare.verdict(steady, [v * 1.5 for v in steady],
                           "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 1.5 for v in steady],
                           "higher", 0.1) == "improved"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 13.0, 8.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.5], [1.5], "higher", "exact") == "within bound"
    assert compare.verdict([1.5], [1.4], "higher", "exact") == "regressed"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_single_workload_result_line(bench, trace):
    done = run("--workload", "timer_storm", "--smoke", "--reps", "1",
               "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(catalogue.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "farmbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/farmbench/run.py", "--workload",
         "timer_storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
