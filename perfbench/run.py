"""Benchmark entry point: ``ptpminer mine`` end to end, or per layer when traced.

Run one workload with one seed from the root of a checkout::

    python3 perfbench/run.py --workload sparse-deep --seed 1 --seconds 55 --trace 0

Set-up (untimed): write the seed's input, mine it serially in-process
for the reference digest, and warm the page cache and ``__pycache__``
with one untimed probe. ``--trace 0`` then repeats rounds until
``--seconds`` is spent: one ``ptpminer mine`` process, one fresh
interpreter making the same public calls (``probe.py api``), and one
set-up-only interpreter, alternating which of the first two goes
first. ``--trace 1`` instead runs one untimed API sample
and one traced interpreter (``probe.py trace``) and reports the
per-layer metrics. The last line of stdout is the JSON result; one line
per child process, with ``/proc/loadavg`` before and after, goes to
stderr. See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import self_times
from workloads import WORKLOADS, cli_args, make_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: The order of timed samples, repeated: which of the CLI and API runs
#: goes first alternates, and each round adds a set-up-only probe, so
#: the cheap and noisy ``setup_s`` gets twice the mining runs' samples.
_ROUNDS = (("cli", "api", "setup"), ("api", "cli", "setup"))
#: Every run must end within this many seconds of its start.
HARD_LIMIT_S = 170.0

#: ``(name, unit, better, bound)`` of every end-to-end metric.
END_TO_END = (
    ("total_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("mine_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("ok_rate", "ratio", "higher", 0.01),
)

#: ``PruneCounters`` fields reported as ``ptpminer.<field>``, with the
#: direction that means less work.
_COUNTERS = (
    ("nodes_expanded", "lower"),
    ("candidates_considered", "lower"),
    ("candidates_frequent", "lower"),
    ("states_created", "lower"),
    ("pruned_pair", "higher"),
    ("pruned_dead_states", "higher"),
    ("pruned_postfix_branches", "higher"),
    ("patterns_emitted", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("io.read_s", "s", "lower"),
    ("io.events", "count", "lower"),
    ("model.strip_s", "s", "lower"),
    ("ptpminer.plan_root_s", "s", "lower"),
    ("ptpminer.roots", "count", "lower"),
    ("ptpminer.pruned_point_labels", "count", "higher"),
    ("endpoint.encode_s", "s", "lower"),
    ("endpoint.tokens", "count", "lower"),
    ("counting.pair_tables_s", "s", "lower"),
    ("counting.pair_cells", "count", "lower"),
    ("ptpminer.search_s", "s", "lower"),
    *((f"ptpminer.{name}", "count", better) for name, better in _COUNTERS),
    ("ptpminer.frequent_ratio", "ratio", "higher"),
    ("ptpminer.dead_state_ratio", "ratio", "lower"),
    ("ptpminer.us_per_state", "us", "lower"),
    ("ptpminer.root_max_s", "s", "lower"),
    ("ptpminer.root_skew", "ratio", "lower"),
    ("engine.plan_shards_s", "s", "lower"),
    ("engine.pickle_s", "s", "lower"),
    ("engine.ship_bytes", "bytes", "lower"),
    ("engine.shard_max_s", "s", "lower"),
    ("engine.shard_imbalance", "ratio", "lower"),
    ("engine.overhead_s", "s", "lower"),
    ("engine.speedup", "x", "higher"),
    ("obs.collectors_s", "s", "lower"),
    ("obs.dataset_digest_s", "s", "lower"),
    ("obs.ledger_append_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """The environment of every measured process: the checkout's
    sources first, runtime contracts off (the default configuration)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CONTRACTS", None)
    return env


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "n/a"


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren, so a killed run's workers can be
    reaped here (Linux only; elsewhere a no-op)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False when it has no process left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and reap it."""
    if not _kill_group(pgid):
        return
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class Child:
    """One finished child process, as seen through ``os.wait4``."""

    label: str
    exit_code: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mib: float

    @property
    def ran(self) -> bool:
        return self.exit_code == 0 and not self.timed_out


def run_child(label: str, cmd: list[str], timeout: float, log: Path) -> Child:
    """Run ``cmd`` in its own process group and block in ``wait4``.

    Wall time spans exec to exit; CPU time and peak RSS come from the
    child's rusage, which includes the workers it reaped. The group is
    killed at ``timeout`` and on exit, so no process outlives the call.
    """
    before = _loadavg()
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        expired = threading.Event()

        def expire() -> None:
            # Only kill here: reaping is left to the wait4 below.
            expired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(timeout, 0.1), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    child = Child(
        label=label,
        exit_code=proc.returncode,
        timed_out=expired.is_set(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
    )
    print(
        f"[{label}] exit {child.exit_code}{' TIMEOUT' if child.timed_out else ''}"
        f" wall {wall:.3f}s cpu {child.cpu_s:.3f}s"
        f" rss {child.peak_rss_mib:.1f}MiB load {before} -> {_loadavg()}",
        file=sys.stderr,
        flush=True,
    )
    return child


def out_digest(out_path: Path) -> str | None:
    """``patterns_digest`` over ``read_patterns`` of a ``--out`` file."""
    from repro.io import read_patterns
    from repro.obs.provenance import patterns_digest

    try:
        return patterns_digest(read_patterns(out_path))
    except (OSError, ValueError):
        return None


def _read_json(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    """State of one ``(workload, seed)`` invocation."""

    def __init__(self, workload, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.input = self.dir / "input.txt"
        self.log = self.dir / "children.log"
        self.reference = ""
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self._serial = 0

    def fresh(self, stem: str) -> Path:
        """A path no earlier child of this run has used."""
        self._serial += 1
        return self.dir / f"{stem}{self._serial}"

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def fail(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    # -- set-up --------------------------------------------------------
    def set_up(self) -> None:
        """Write the input, take the serial reference, warm up."""
        from repro.core.config import MinerConfig
        from repro.core.ptpminer import PTPMiner
        from repro.io import write_database
        from repro.obs.provenance import patterns_digest

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        w = self.workload
        db = make_input(w, self.seed)
        write_database(db, self.input)
        if w.mode == "tp":
            db = db.without_point_events()
        result = PTPMiner.from_config(
            MinerConfig(min_sup=w.min_sup, mode=w.mode)
        ).mine(db)
        self.reference = patterns_digest(result.patterns)
        if (len(result.patterns), self.reference) != (
            w.expected_patterns, w.expected_digest
        ):
            self.fail(
                f"reference {len(result.patterns)} patterns / "
                f"{self.reference}, expected {w.expected_patterns} / "
                f"{w.expected_digest}"
            )
        del db, result
        gc.collect()
        self.setup_probe("warm-up")

    # -- samples -------------------------------------------------------
    def _probe_cmd(self, kind: str, result: Path) -> list[str]:
        w = self.workload
        cmd = [sys.executable, str(HERE / "probe.py"), kind,
               str(self.input), w.mode, str(result)]
        if kind != "setup":
            cmd += [repr(w.min_sup), str(w.workers)]
        return cmd

    def setup_probe(self, label: str = "setup") -> float | None:
        result = self.fresh("setup-").with_suffix(".json")
        child = run_child(
            label, self._probe_cmd("setup", result), self.remaining(), self.log
        )
        payload = _read_json(result) if child.ran else None
        if payload is None:
            self.fail(f"{label} probe failed (exit {child.exit_code})")
            return None
        return payload["setup_s"]

    def mining_run(self, child: Child, digest: str | None) -> bool:
        """Count one mining run; it fails on a non-zero exit, a timeout,
        or patterns whose digest differs from the serial reference."""
        self.attempted += 1
        ok = child.ran and digest == self.reference
        if not ok:
            self.failed += 1
            self.notes.append(
                f"{child.label}: exit {child.exit_code}, timed out "
                f"{child.timed_out}, digest {digest} != {self.reference}"
            )
        return ok

    def cli_sample(self, cmd: list[str], out: Path) -> Child | None:
        """One ``ptpminer mine`` process; None when the run failed."""
        child = run_child("cli", cmd, self.remaining(), self.log)
        digest = out_digest(out) if child.ran else None
        return child if self.mining_run(child, digest) else None

    def api_sample(self) -> dict | None:
        """One fresh interpreter making the CLI's public calls."""
        result = self.fresh("api-").with_suffix(".json")
        child = run_child(
            "api", self._probe_cmd("api", result), self.remaining(), self.log
        )
        payload = _read_json(result) if child.ran else None
        ok = self.mining_run(child, payload and payload.get("digest"))
        return payload if ok else None

    # -- modes ---------------------------------------------------------
    def measure(self) -> dict[str, tuple[float, int]]:
        """Timed samples for ``--seconds``; medians with sample counts.

        Samples follow ``_ROUNDS`` in turn. A sample is not started when
        its previous duration would overrun the time, so every kind runs
        at least once and the run ends within ``--seconds`` plus one
        sample.
        """
        samples: dict[str, list[float]] = {
            name: [] for name, *_ in END_TO_END if name != "ok_rate"
        }

        def cli() -> None:
            out = self.fresh("cli-").with_suffix(".out")
            cmd = cli_args(
                self.workload, str(self.input), str(out),
                str(self.fresh("ledger-")),
            )
            child = self.cli_sample(cmd, out)
            if child is not None:
                samples["total_s"].append(child.wall_s)
                samples["cpu_s"].append(child.cpu_s)
                samples["peak_rss_mib"].append(child.peak_rss_mib)

        def api() -> None:
            payload = self.api_sample()
            if payload is not None:
                samples["setup_s"].append(payload["setup_s"])
                samples["mine_s"].append(payload["mine_s"])

        def setup() -> None:
            setup_s = self.setup_probe()
            if setup_s is not None:
                samples["setup_s"].append(setup_s)

        kinds = {"cli": cli, "api": api, "setup": setup}
        took: dict[str, float] = {}
        deadline = time.perf_counter() + self.seconds
        for kind in itertools.chain.from_iterable(itertools.cycle(_ROUNDS)):
            began = time.perf_counter()
            if kind in took and (
                began + took[kind] > deadline
                or self.remaining() < 2 * took[kind]
            ):
                break
            kinds[kind]()
            took[kind] = time.perf_counter() - began
        out = {}
        for name, values in samples.items():
            if not values:
                self.fail(f"no successful sample for {name}")
            out[name] = (statistics.median(values) if values else 0.0,
                         len(values))
        out["ok_rate"] = (1.0 - self.failed / max(self.attempted, 1),
                          self.attempted)
        return out

    def trace(self) -> dict[str, tuple[float, int]]:
        """One untraced API sample, then the traced interpreter."""
        untraced = self.api_sample()
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = traces / f"{self.workload.name}-s{self.seed}"
        result = self.dir / "trace.json"
        w = self.workload
        cmd = self._probe_cmd("trace", result) + [
            f"{stem}.jsonl", f"{w.name}-s{self.seed}-p{os.getpid()}",
            str(self.dir),
        ]
        child = run_child("trace", cmd, self.remaining(), self.log)
        traced = _read_json(result) if child.ran else None
        self.mining_run(child, traced and traced.get("digest"))
        if traced is None or untraced is None:
            self.fail("traced or untraced run failed")
            return {name: (0.0, 0) for name, *_ in PER_LAYER}
        if traced["support_mismatches"]:
            self.fail(f"support_in disagrees: {traced['support_mismatches']}")
        metrics = layer_metrics(w, traced, untraced["mine_s"])
        with open(f"{stem}.jsonl", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        with open(f"{stem}.summary.json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": w.name,
                    "seed": self.seed,
                    "metrics": metrics,
                    "durations": traced["durations"],
                    "self_s": self_times(events),
                    "counts": traced["counts"],
                },
                handle, indent=1, sort_keys=True,
            )
        return {name: (value, 1) for name, value in metrics.items()}


def layer_metrics(workload, traced: dict, untraced_mine_s: float) -> dict:
    """Per-layer metrics from the traced interpreter's spans and counts.

    Engine and root metrics are 0 on serial workloads, which never
    enter :mod:`repro.engine`; so are the obs metrics, whose collectors
    only the sharded (``--ledger-dir``) workload installs.
    """
    d, c = traced["durations"], traced["counts"]
    k = c["mine"]
    search_s = d["ptpminer.search"] - d["ptpminer.search_prep"]
    searched = c["ptpminer.search"]["states_created"]
    m = {
        "cli.import_s": d["cli.import"],
        "io.read_s": d["io.read"],
        "io.events": c["io.read"]["events"],
        "model.strip_s": d.get("model.strip", 0.0),
        "ptpminer.plan_root_s": d["ptpminer.plan_root"],
        "ptpminer.roots": c["ptpminer.plan_root"]["roots"],
        "ptpminer.pruned_point_labels":
            c["ptpminer.plan_root"]["pruned_point_labels"],
        "endpoint.encode_s": d["endpoint.encode"],
        "endpoint.tokens": c["endpoint.encode"]["tokens"],
        "counting.pair_tables_s": d["counting.pair_tables"],
        "counting.pair_cells": c["counting.pair_tables"]["cells"],
        "ptpminer.search_s": search_s,
        **{f"ptpminer.{name}": k[name] for name, _ in _COUNTERS},
        "ptpminer.frequent_ratio":
            k["candidates_frequent"] / max(k["candidates_considered"], 1),
        "ptpminer.dead_state_ratio": k["pruned_dead_states"]
            / max(k["states_created"] + k["pruned_dead_states"], 1),
        "ptpminer.us_per_state": search_s / max(searched, 1) * 1e6,
        "io.write_s": d["io.write"],
        "trace.overhead_s": d["mine"] - untraced_mine_s,
    }
    zero = [name for name, *_ in PER_LAYER if name not in m]
    m.update(dict.fromkeys(zero, 0.0))
    if workload.sharded:
        roots, shards = traced["root_s"], traced["shard_s"]
        m.update({
            "ptpminer.root_max_s": max(roots),
            "ptpminer.root_skew": max(roots) / statistics.mean(roots),
            "engine.plan_shards_s": d["engine.plan_shards"],
            "engine.pickle_s": d["engine.pickle"] * workload.workers,
            "engine.ship_bytes":
                c["engine.pickle"]["bytes"] * workload.workers,
            "engine.shard_max_s": max(shards),
            "engine.shard_imbalance": max(shards) / statistics.mean(shards),
            "engine.overhead_s":
                d["mine"] - d["ptpminer.plan_root"] - max(shards),
            # Two serial mines each way (see probe._obs_probes).
            "engine.speedup": d["ptpminer.serial_mine"] / 2 / d["mine"],
            "obs.collectors_s":
                (d["obs.collectors_mine"] - d["ptpminer.serial_mine"]) / 2,
            "obs.dataset_digest_s": d["obs.dataset_digest"],
            "obs.ledger_append_s": d["obs.ledger_append"],
        })
    return m


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_CONTRACTS", None)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    _become_subreaper()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} load={_loadavg()}",
        file=sys.stderr, flush=True,
    )
    try:
        run.set_up()
        values = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    specs = [(n, u) for n, u, *_ in (PER_LAYER if args.trace else END_TO_END)]
    for name, unit in specs:
        value, count = values[name]
        print(f"{name:32} {value:14.6g} {unit:6} (n={count})")
    for note in run.notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name][0], "unit": unit}
            for name, unit in specs
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
