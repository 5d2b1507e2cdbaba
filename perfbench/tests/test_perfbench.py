"""Self-tests of the benchmark (not of the program it measures)."""

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
from spans import Recorder, self_times
from workloads import WORKLOADS, cli_args, make_input

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_units_and_spec_match_the_code():
    spec = _spec()
    names = [
        m["name"]
        for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(unit) for unit in units), units
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(bench.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(bench.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert ("setup_s", "s", "lower") in {
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    }


def _span(span_id, parent, name, ts, dur):
    return [
        {"ev": "B", "span": span_id, "parent": parent, "name": name,
         "ts": ts},
        {"ev": "E", "span": span_id, "name": name, "ts": ts + dur,
         "dur": dur},
    ]


def test_self_time_subtracts_children_once_and_clips_to_parent():
    events = (
        _span(1, None, "root", 0.0, 10.0)
        + _span(2, 1, "a", 1.0, 3.0)        # [1, 4]
        + _span(3, 2, "a.child", 2.0, 1.0)  # [2, 3] inside a
        + _span(4, 1, "b", 3.0, 3.0)        # [3, 6] overlaps a
        + _span(5, 1, "c", 9.0, 3.0)        # [9, 12] runs past root
    )
    got = self_times(events)
    # root covers [1, 6] and [9, 10] through its children: 10 - 5 - 1.
    assert got == pytest.approx(
        {"root": 4.0, "a": 2.0, "a.child": 1.0, "b": 3.0, "c": 3.0}
    )


def test_recorded_self_times_add_up_to_the_root_span():
    rec = Recorder("t")
    with rec.span("run"):
        with rec.span("load") as span:
            time.sleep(0.01)
        span["events"] = 7
        with rec.span("mine"):
            with rec.span("search"):
                time.sleep(0.01)
    assert rec.counts()["load"] == {"events": 7}
    assert {ev["run"] for ev in rec.events if ev["ev"] == "B"} == {"t"}
    assert sum(self_times(rec.events).values()) == pytest.approx(
        rec.durations()["run"]
    )


def _pattern_file(path, support):
    path.write_text(
        f"{support}\t(A+) (A-)\n{support}\t(B+) (B-)\n", encoding="utf-8"
    )
    return path


def test_a_tampered_out_file_is_a_failed_run(tmp_path):
    run = bench.Run(WORKLOADS["sparse-deep"], seed=1, seconds=1)
    run.dir, run.log = tmp_path, tmp_path / "children.log"
    run.reference = bench.out_digest(_pattern_file(tmp_path / "ref", 3))
    out = tmp_path / "out"

    def cli_writing(source):
        return [sys.executable, "-c", "import shutil, sys; "
                "shutil.copy(sys.argv[1], sys.argv[2])", str(source), str(out)]

    assert run.cli_sample(cli_writing(tmp_path / "ref"), out) is not None
    tampered = _pattern_file(tmp_path / "tampered", 4)
    assert run.cli_sample(cli_writing(tampered), out) is None
    assert (run.attempted, run.failed) == (2, 1)


def test_a_hung_child_is_killed_at_its_timeout(tmp_path):
    started = time.perf_counter()
    child = bench.run_child(
        "hang", [sys.executable, "-c", "import time; time.sleep(60)"],
        0.5, tmp_path / "log",
    )
    assert child.timed_out and not child.ran
    assert time.perf_counter() - started < 10


def test_another_seed_changes_the_data_but_not_the_workload_shape():
    workload = WORKLOADS["hybrid-sharded"]
    first, second = make_input(workload, 1), make_input(workload, 2)
    assert [s.events for s in first] != [s.events for s in second]

    def shape(db):
        return len(db), sorted(
            (e.label, e.finish - e.start, e.is_point) for s in db for e in s
        )

    assert shape(first) == shape(second)
    assert len(first) == workload.sequences
    assert cli_args(workload, "in", "out", "led")[-2:] == ["--ledger-dir", "led"]
    assert "--workers" in cli_args(workload, "in", "out", "led")


def test_every_seed_mines_the_same_patterns():
    from repro.core.config import MinerConfig
    from repro.core.ptpminer import PTPMiner
    from repro.obs.provenance import patterns_digest

    tiny = replace(
        WORKLOADS["hybrid-sharded"], name="tiny", dataset="tiny",
        sequences=60, min_sup=0.1,
    )
    miner = PTPMiner.from_config(MinerConfig(min_sup=0.1, mode="htp"))
    digests = {
        patterns_digest(miner.mine(make_input(tiny, seed)).patterns)
        for seed in (1, 2, 3)
    }
    assert len(digests) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
