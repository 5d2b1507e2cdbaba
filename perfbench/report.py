"""Reports built from many ``run.py`` invocations.

``aa``: the A/A steadiness check. Two sets of runs of the same checkout,
interleaved seed by seed (set A first on odd seeds, B first on even),
with each set's median and quartiles per workload and metric, the
spread ``(q3 - q1) / median`` and the shift of B's median against A's,
judged against the metric's bound from ``BENCHMARK.json``. The raw
results go to ``AA.json`` beside the table; ``--render-only`` rebuilds
the table from them::

    python3 perfbench/report.py aa --seeds 1-10 --out perfbench/results/AA.md

``layers``: the layer-share table. One timed and one traced run per
workload; each layer's time as a share of the timed ``total_s``::

    python3 perfbench/report.py layers --seed 1 --out perfbench/results/LAYERS.md
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run ``run.py`` once and return its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"run.py {workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{lines[-1][:160]}", file=sys.stderr, flush=True)
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and spread ``(q3 - q1) / median``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def machine() -> str:
    """The CPU count, CPU model and Python version of this machine."""
    model = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return (f"{os.cpu_count()} vCPU {platform.system()} ({model}), "
            f"Python {platform.python_version()}")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def aa(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    raw = Path(args.out).with_suffix(".json")
    if args.render_only:
        record = json.loads(raw.read_text(encoding="utf-8"))
    else:
        record = {
            "seeds": _seeds(args.seeds),
            "run_seconds": spec["run_seconds"],
            "machine": machine(),
            "runs": {w["name"]: {"A": [], "B": []} for w in spec["workloads"]},
        }
        for seed in record["seeds"]:
            for workload, sets in record["runs"].items():
                for label in ("A", "B") if seed % 2 else ("B", "A"):
                    sets[label].append(
                        invoke(workload, seed, spec["run_seconds"], 0)
                    )
        raw.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    text, failures = render_aa(spec, record)
    Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 1 if failures else 0


def render_aa(spec: dict, record: dict) -> tuple[str, int]:
    """The A/A table and its number of failed checks."""
    seeds = record["seeds"]
    lines = [
        "# A/A steadiness",
        "",
        f"Two interleaved sets of `run.py --trace 0` on one checkout, seeds "
        f"{seeds[0]}-{seeds[-1]}, `--seconds {record['run_seconds']}`, on "
        f"a {record['machine']} "
        "(raw results in `AA.json`). Spread is `(q3 - q1) / median` of a "
        "set's ten run medians (quartiles from "
        "`statistics.quantiles(n=4)`); shift is how much worse B's median "
        "is than A's. *Agree*: the shift is within the bound. *Spread ok*: "
        "both spreads are within the bound (not required of `setup_s`). "
        "*Steady*: both spreads are below a third of the bound.",
        "",
        "| workload | metric | bound | A median [q1, q3] | B median [q1, q3] "
        "| spread A | spread B | shift | agree | spread ok | steady |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = record["runs"][workload]
        bad_runs = sum(
            1 for r in runs["A"] + runs["B"]
            if not r["correct"] or r["failed"]
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {
                label: summarize(
                    [r["metrics"][name]["value"] for r in runs[label]]
                )
                for label in ("A", "B")
            }
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if a else 0.0
            if metric["better"] == "higher":
                worse = -worse
            widest = max(stats["A"]["spread"], stats["B"]["spread"])
            agree = worse <= bound
            spread_ok = widest <= bound
            failures += (not agree) + (not spread_ok and name != "setup_s")
            lines.append(
                f"| {workload} | {name} | {bound:g} | "
                + " | ".join(
                    f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                    for s in stats.values()
                )
                + f" | {stats['A']['spread']:.1%} | {stats['B']['spread']:.1%}"
                f" | {worse:+.1%} | {'yes' if agree else 'NO'}"
                f" | {'yes' if spread_ok else 'n/a' if name == 'setup_s' else 'NO'}"
                f" | {'yes' if widest < bound / 3 else 'no'} |"
            )
        lines.append(
            f"| {workload} | runs incorrect or with failures | | "
            f"{bad_runs} of {len(runs['A']) + len(runs['B'])} | | | | | "
            f"{'yes' if bad_runs == 0 else 'NO'} | | |"
        )
        failures += bad_runs > 0
    return "\n".join(lines) + "\n", failures


#: Rows of the layer-share table: (label, key, summed, what it moves).
#: Rows that are not summed are parts of other rows.
_LAYER_ROWS = (
    ("interpreter start and exit, argparse, printing", "rest", True,
     "total_s on all workloads"),
    ("repro.cli import", "self.cli.import", True,
     "setup_s, total_s on all; largest share where parse is small"),
    ("repro.io read", "self.io.read", True,
     "setup_s on all; most of it where parse is large"),
    ("repro.model strip", "self.model.strip", True, "setup_s on sparse-deep"),
    ("root plan: point prune, encode, pair tables, root gather",
     "self.ptpminer.plan_root", True,
     "mine_s, cpu_s on hybrid-sharded; part of mine_s on sparse-deep"),
    ("- of which endpoint encode", "self.endpoint.encode", False,
     "as root plan; every shard worker repeats it"),
    ("- of which pair tables", "self.counting.pair_tables", False,
     "as root plan; every shard worker repeats it"),
    ("search below the roots (serial)", "search", True,
     "mine_s on sparse-deep"),
    ("slowest shard: re-encode and its subtrees", "engine.shard_max_s",
     True, "mine_s, total_s on hybrid-sharded; the search share of cpu_s"),
    ("engine overhead: spawn, shipping, merge, collectors",
     "engine.overhead_s", True,
     "mine_s, total_s, cpu_s, peak_rss_mib on hybrid-sharded"),
    ("obs dataset digest and ledger append", "ledger", True,
     "total_s on hybrid-sharded"),
    ("repro.io write (emission)", "self.io.write", True,
     "total_s on sparse-deep"),
    ("obs collectors: a serial mine with them minus one without; spread "
     "over the shard and overhead rows, not added again",
     "obs.collectors_s", False, "mine_s, total_s on hybrid-sharded"),
)


def layers(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    rows: dict[str, dict[str, float]] = {}
    checks = []
    for workload in workloads:
        timed = invoke(workload, args.seed, spec["run_seconds"], 0)
        traced = invoke(workload, args.seed, spec["run_seconds"], 1)
        e2e = {k: v["value"] for k, v in timed["metrics"].items()}
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        sharded = m["engine.shard_max_s"] > 0
        summary = ROOT / ".bench_work" / "traces" / (
            f"{workload}-s{args.seed}.summary.json"
        )
        summary = json.loads(summary.read_text(encoding="utf-8"))
        self_s, traced_mine = summary["self_s"], summary["durations"]["mine"]
        row = collections.defaultdict(float, m)
        row.update((f"self.{name}", t) for name, t in self_s.items())
        row["bookkeeping"] = sum(
            self_s.get(name, 0.0) for name in ("run", "e2e", "probes")
        )
        # A sharded mine waits for its slowest shard, not the whole search.
        row["search"] = 0.0 if sharded else m["ptpminer.search_s"]
        row["ledger"] = m["obs.dataset_digest_s"] + m["obs.ledger_append_s"]
        row["rest"] = e2e["total_s"] - sum(
            row[key] for _, key, summed, _ in _LAYER_ROWS
            if summed and key != "rest"
        )
        rows[workload] = {**row, **{f"e2e.{k}": v for k, v in e2e.items()}}
        total = e2e["total_s"]
        if workload == "sparse-deep":
            search = m["ptpminer.search_s"]
            checks.append(
                f"- sparse-deep: `ptpminer.search_s` / `mine_s` = "
                f"{search:.3f} / {e2e['mine_s']:.3f} = "
                f"{search / e2e['mine_s']:.0%}; over the traced run's own "
                f"mine span {search:.3f} / {traced_mine:.3f} = "
                f"{search / traced_mine:.0%} (criterion: >= 75%)"
            )
            ingest = m["io.read_s"] + m["ptpminer.plan_root_s"]
            checks.append(
                f"- sparse-deep: (`io.read_s` + `ptpminer.plan_root_s`) / "
                f"`total_s` = {ingest:.3f} / {total:.3f} = "
                f"{ingest / total:.0%} (criterion: <= 25%)"
            )
        scoped = [k for k in m if k.startswith(("engine.", "obs."))]
        checks.append(
            f"- {workload}: nonzero `engine.*` and `obs.*` metrics: "
            f"{sum(1 for k in scoped if m[k] != 0)} of {len(scoped)}"
        )
    lines = [
        "# Layer shares",
        "",
        f"Seed {args.seed}. Each row is a layer's self time in the traced "
        "run (`run.py --trace 1`) as a share of `total_s` from a timed run "
        "(`--trace 0`) of the same seed. Each probe is one leaf span "
        "around a call into the layer's public functions; search is the "
        "`search_shard` probe minus its re-encode-only twin; the slowest "
        "shard comes from the ledger registry's `engine.shard_elapsed_s` "
        "gauges of the traced sharded mine. These are single samples. "
        "Rows marked \"of which\" or \"not added\" are parts of other "
        "rows. The first row is what the other rows leave of "
        "`total_s`: interpreter start and exit, argument parsing, "
        "printing, and what a fresh process's `mine()` costs beyond the "
        "in-process probes. The traced and the timed run measure at "
        "different moments of a machine whose speed drifts (see "
        "`AA.md`), so a small row can come out negative.",
        "",
        "| layer | moves | " + " | ".join(workloads) + " |",
        "|---|---|" + "---|" * len(workloads),
    ]
    for label, key, _, moves in _LAYER_ROWS:
        cells = []
        for workload in workloads:
            value = rows[workload][key]
            share = value / rows[workload]["e2e.total_s"]
            cells.append(f"{value:.3f} s ({share:.0%})")
        lines.append(f"| {label} | {moves} | " + " | ".join(cells) + " |")
    lines.append(
        "| benchmark's own time between probes (self time of group spans) "
        "| none | " + " | ".join(
            f"{rows[w]['bookkeeping']:.3f} s" for w in workloads
        ) + " |"
    )
    for name in ("total_s", "mine_s", "setup_s", "cpu_s"):
        lines.append(
            f"| {name} (timed run) | | " + " | ".join(
                f"{rows[w]['e2e.' + name]:.3f} s" for w in workloads
            ) + " |"
        )
    lines += [
        "",
        "## How the metrics interact",
        "",
        "- On hybrid-sharded, `mine_s` = root plan + slowest shard + "
        "engine overhead, so a faster search moves it only by the slowest "
        "shard's share.",
        "- Moving work from the parent into the workers lowers `total_s` "
        "but raises `cpu_s`.",
        "- Moving work from `mine()` into loading shows as a rise in "
        "`setup_s`.",
        "",
        "## What each workload was chosen for",
        "",
        *checks,
        "",
    ]
    text = "\n".join(lines)
    Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    aa_p = sub.add_parser("aa", help="A/A steadiness of two interleaved sets")
    aa_p.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    aa_p.add_argument("--out", default=str(HERE / "results" / "AA.md"))
    aa_p.add_argument("--render-only", action="store_true",
                      help="rebuild the table from the saved AA.json")
    layers_p = sub.add_parser("layers", help="layer-share table")
    layers_p.add_argument("--seed", type=int, default=1)
    layers_p.add_argument("--out", default=str(HERE / "results" / "LAYERS.md"))
    args = parser.parse_args()
    return aa(args) if args.command == "aa" else layers(args)


if __name__ == "__main__":
    sys.exit(main())
