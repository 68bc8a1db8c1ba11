"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q

They run the workloads on tiny inputs, so they take seconds.
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gen
import run
import workloads
from spans import TARGETS, lookup
from workloads import ExactSmall, Family, PlantedLarge, ReduceCli

sys.path.insert(0, str(run.SRC))

TINY_PLAN = {12: 1}


def tiny_workloads(tmp_path: Path):
    return [
        PlantedLarge(plan=TINY_PLAN),
        ExactSmall(counts={4: 3, 5: 2}, graph_counts={4: 1}),
        ReduceCli(tmp_path / "work", families=(Family("dfs", "edge", "k4", 3),)),
    ]


def test_generators_repeat_under_a_seed_and_differ_across_seeds():
    makers = [
        lambda seed: gen.planted_profiles(seed, {30: 1}),
        lambda seed: gen.random_profiles(seed, {5: 3, 6: 2}),
        lambda seed: gen.connected_graphs(seed, {5: 2}),
        lambda seed: gen.k4_graph(gen.rng_for("reduce-cli", seed)),
        lambda seed: gen.petersen_graph(gen.rng_for("reduce-cli", seed)),
    ]
    for make in makers:
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_planted_rows_replay_and_wrong_rows_do_not():
    for item in gen.planted_profiles(3, {40: 2}):
        adj = gen.adjacency(item["n"], item["edges"])
        replay = gen.replays_dfs_on_tree if item["kind"] == "dfs" else gen.replays_gs
        assert all(replay(adj, row) for row in item["index_rows"])
    path = gen.adjacency(4, [(0, 1), (1, 2), (2, 3)])  # 0-1-2-3
    assert gen.replays_dfs_on_tree(path, [1, 2, 3, 0])
    assert not gen.replays_dfs_on_tree(path, [1, 2, 0, 3])
    assert gen.replays_gs(path, [1, 2, 0, 3])
    assert not gen.replays_gs(path, [0, 2, 1, 3])


def test_traced_runs_restore_every_wrapped_attribute(tmp_path, monkeypatch):
    seen = []

    class Recording(run.Tracer):
        def install(self):
            before = {(owner, attr): lookup(owner, attr) for owner, attr, _n, _c in TARGETS}
            super().install()
            wrapped = sum(lookup(*key) is not obj for key, obj in before.items())
            seen.append((before, wrapped))

    monkeypatch.setattr(run, "Tracer", Recording)
    for workload in tiny_workloads(tmp_path):
        result, _lines = run.run(workload, seed=1, seconds=0, trace=True)
        before, wrapped = seen[-1]
        assert wrapped == len(TARGETS), workload.name
        assert all(lookup(*key) is obj for key, obj in before.items()), workload.name
        assert result["correct"], workload.name
        assert result["metrics"]["trace.missing_targets"]["value"] == 0


def test_missing_wrap_target_is_reported_and_skipped():
    tracer = run.Tracer(targets=TARGETS + [("searchorder.dfs_tree", "gone", "x", None)])
    run.fresh_import(("searchorder",))
    with tracer.installed():
        pass
    assert tracer.missing == ["searchorder.dfs_tree.gone"]


@pytest.mark.parametrize("trace", [False, True])
def test_a_wrong_recognizer_raises_failed_share(trace):
    def always_no(profile):
        return SimpleNamespace(is_yes=False, tree=None, reason="EMPTY_Q")

    result, _lines = run.run(PlantedLarge(plan=TINY_PLAN), seed=1, seconds=0, trace=trace,
                             overrides={"dfs_tree.recognize_dfs_tree": always_no})
    assert result["failed"] > 0
    assert not result["correct"]


def test_a_wrong_witness_is_caught():
    def star_witness(profile):
        # a tree on the right vertices, but not one every row replays on
        names = profile.universe.names
        tree = sys.modules["searchorder"].Tree.build(names, [(names[0], v) for v in names[1:]])
        return SimpleNamespace(is_yes=True, tree=tree, reason=None)

    result, _lines = run.run(ExactSmall(counts={5: 4}, graph_counts={4: 1}), seed=2, seconds=0,
                             trace=False, overrides={"attachment.recognize_gs_tree": star_witness})
    assert result["failed"] > 0


def test_a_wrong_cli_witness_is_caught(tmp_path, monkeypatch):
    def path_yes(run_command):
        # Both the subprocess and the in-process run answer YES with the same
        # path through the instance's vertices, so only replaying the
        # witness against the instance's rows can catch it.
        def wrapped(*args):
            answer = run_command(*args)
            command = args[-1]
            if command[0] != "recognize":
                return answer
            text = Path(command[command.index("--profile") + 1]).read_text()
            names = sys.modules["searchorder"].ReductionInstance.parse(text).profile.universe.names
            return 0, "YES", tuple(zip(names, names[1:]))
        return wrapped

    monkeypatch.setattr(workloads, "run_subprocess", path_yes(workloads.run_subprocess))
    monkeypatch.setattr(workloads, "run_in_process", path_yes(workloads.run_in_process))
    workload = ReduceCli(tmp_path / "work", families=(Family("dfs", "edge", "k4", 3),))
    result, lines = run.run(workload, seed=1, seconds=0, trace=False)
    assert result["failed"] > 0
    assert any("witness does not replay every row" in line for line in lines)


def test_probe_leaves_the_collector_as_it_was():
    def state():
        return gc.get_count(), tuple(s["collections"] for s in gc.get_stats())

    workloads.probe_seconds()  # the first one fills the interpreter's free lists
    before = state()
    for _ in range(50):
        workloads.probe_seconds()
    after = state()
    assert gc.isenabled()
    assert after == before


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert value == 30 and sum(v > value for v in values) == 10 and pct == 75.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
