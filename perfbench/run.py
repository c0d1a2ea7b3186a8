"""Host wall-clock benchmark of the GPUTx reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tm1-serve --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One run generates the workload's inputs from ``--seed``, then repeats
iterations (set-up, timed region, verification against the serial
oracle) for about ``--seconds`` and reports medians. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics from the traced
ones, with the tracing overhead. The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any check fails. ``--workload all`` runs every
workload in its own process and prints one row per workload.

Run records (iterations, what executed, and the traced spans) are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from tracing import LAYERS, NO_TRACE, Tracer

# One process, no helper threads: pin the numeric libraries before any
# of them is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("tm1-serve", "tpcc-bulk", "smallbank-cluster")

#: End-to-end metrics in print order: (name, unit, has a bound). The
#: unbounded ones are printed and recorded only: on a shared two-core
#: host the wall-clock ones spread by up to 0.3 of the median between
#: runs, and ``failed_share`` is 0 on every correct run.
END_TO_END = (
    ("wall_tps", "txn/s", False),
    ("setup_s", "s", True),
    ("sim_ktps", "ktxn/s", True),
    ("sim_p50_ms", "ms", True),
    ("sim_p99_ms", "ms", True),
    ("max_rate_ktps", "ktxn/s", True),
    ("abort_share", "fraction", True),
    ("peak_rss_mb", "MiB", True),
    ("total_s", "s", False),
    ("verify_s", "s", False),
    ("failed_share", "fraction", False),
)
#: The metrics of the JSON result with ``--trace 0`` (``BENCHMARK.json``).
BOUNDED = tuple((name, unit) for name, unit, bounded in END_TO_END if bounded)

#: Per-layer metrics measured as (seconds, calls) of a traced stem:
#: metric -> (stem, "s" or "calls"). The vector path's stems
#: (``backends.replay``, ``backends.lockstep``) are traced but not
#: reported: under the default interpreted backend they are always 0,
#: and their time shows in ``backends.self_s`` once they run.
STEM_METRICS = {
    "storage.build_s": ("storage.build", "s"),
    "storage.create_index_s": ("storage.create_index", "s"),
    "storage.create_index_calls": ("storage.create_index", "calls"),
    "storage.clone_s": ("storage.clone", "s"),
    "storage.logical_state_s": ("storage.logical_state", "s"),
    "core.profile_s": ("core.profile", "s"),
    "core.profile_calls": ("core.profile", "calls"),
    "core.compute_ranks_s": ("core.compute_ranks", "s"),
    "core.tdg_build_s": ("core.tdg_build", "s"),
    "engine.execute_bulk_s": ("engine.execute_bulk", "s"),
    "engine.bulks": ("engine.execute_bulk", "calls"),
    "backends.launch_wave_s": ("backends.launch_wave", "s"),
    "backends.launch_wave_calls": ("backends.launch_wave", "calls"),
    "backends.launch_partitions_s": ("backends.launch_partitions", "s"),
    "backends.launch_partitions_calls": ("backends.launch_partitions", "calls"),
    "backends.launch_locked_s": ("backends.launch_locked", "s"),
    "backends.launch_locked_calls": ("backends.launch_locked", "calls"),
    "gpu.simt_launch_s": ("gpu.simt_launch", "s"),
    "serve.offer_batch_s": ("serve.offer_batch", "s"),
    "serve.offer_batch_calls": ("serve.offer_batch", "calls"),
    "cluster.partition_s": ("cluster.partition", "s"),
    "cluster.coordinator_s": ("cluster.coordinator", "s"),
    "cluster.wal_append_s": ("cluster.wal_append", "s"),
    "cluster.wal_records": ("cluster.wal_append", "calls"),
    "cluster.checkpoint_s": ("cluster.checkpoint", "s"),
    "cluster.checkpoints": ("cluster.checkpoint", "calls"),
    "cluster.recover_s": ("cluster.recover", "s"),
    "cpu.oracle_s": ("cpu.oracle", "s"),
    "scenarios.definition1_s": ("scenarios.definition1", "s"),
    "scenarios.recovery_twin_s": ("scenarios.recovery_twin", "s"),
}


#: Per-layer counts the trace observers of :class:`_RanCounter` make.
COUNTED = (
    "storage.rows",
    "core.bulks.kset",
    "core.bulks.part",
    "core.bulks.part-tpl-fallback",
    "core.bulks.tpl",
    "core.bulks.other",
    "backends.waves_vectorized",
    "backends.waves_interpreted",
)


def _per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    from workloads import SIM_PHASES

    names = [
        (m, "s" if how == "s" else "count") for m, (_, how) in STEM_METRICS.items()
    ]
    names += [(name, "count") for name in COUNTED]
    names += [
        ("serve.bulks", "count"),
        ("serve.mean_bulk", "txn"),
        ("serve.sim_queue_p99_ms", "ms"),
        ("serve.shed", "count"),
        ("workloads.generate_s", "s"),
    ]
    names += [(f"sim.{p}_s", "s") for p in SIM_PHASES]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names.append(("telemetry.overhead_share", "fraction"))
    return names


class _RanCounter:
    """Trace observers: what executed, counted at the entry points."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._backend_seen: Dict[int, Tuple[Any, int, int]] = {}

    def install(self, tracer: Any) -> None:
        tracer.observers["engine.execute_bulk"] = self._bulk
        tracer.observers["storage.logical_state"] = self._rows

    def _bulk(self, args: tuple, result: Any, outermost: bool) -> None:
        label = "core.bulks." + result.strategy.replace("(", "-").rstrip(")")
        self.counts[label if label in COUNTED else "core.bulks.other"] += 1
        backend = args[0].backend
        if not hasattr(backend, "waves_vectorized"):
            self.counts["backends.waves_interpreted"] += len(result.kernel_reports)
            return
        _, vec, interp = self._backend_seen.get(id(backend), (backend, 0, 0))
        self.counts["backends.waves_vectorized"] += backend.waves_vectorized - vec
        self.counts["backends.waves_interpreted"] += (
            backend.waves_interpreted - interp
        )
        self._backend_seen[id(backend)] = (
            backend, backend.waves_vectorized, backend.waves_interpreted
        )

    def _rows(self, args: tuple, result: Any, outermost: bool) -> None:
        if outermost:
            self.counts["storage.rows"] += sum(len(rows) for rows in result.values())


def _traced_iteration(workload: Any) -> Tuple[Any, Dict[str, float], Tracer]:
    tracer = Tracer()
    ran = _RanCounter()
    ran.install(tracer)
    workload.trace = tracer
    tracer.install()
    try:
        with tracer.span("bench.iteration"):
            it = workload.run_once()
    finally:
        tracer.uninstall()
        workload.trace = NO_TRACE
    metrics: Dict[str, float] = {}
    totals = tracer.stem_totals()
    for metric, (stem, how) in STEM_METRICS.items():
        seconds, calls = totals.get(stem, (0.0, 0))
        metrics[metric] = seconds if how == "s" else float(calls)
    for name in COUNTED:
        metrics[name] = float(ran.counts[name])
    for key, value in it.serve.items():
        metrics[f"serve.{key}"] = value
    for key, value in it.sim.items():
        if key.startswith("sim."):
            metrics[key] = value
    for layer, seconds in tracer.self_by_layer().items():
        metrics[f"{layer}.self_s"] = seconds
    return it, metrics, tracer


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, NO_TRACE)
    iterations: List[Any] = []
    untraced: List[Any] = []
    traced: List[Tuple[Any, Dict[str, float]]] = []
    spans: List[Any] = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(iterations) % 2 == 1:
            it, layer, tracer = _traced_iteration(workload)
            traced.append((it, layer))
            spans.append(tracer.dump())
        else:
            it = workload.run_once()
            untraced.append(it)
        iterations.append(it)
        elapsed = time.perf_counter() - begin
        per_iteration = elapsed / len(iterations)
        if len(iterations) >= 2 and elapsed + per_iteration > seconds:
            break

    problems = [p for it in iterations for p in it.problems]
    failed = sum(it.failed for it in iterations)
    first = iterations[0]
    for k, it in enumerate(iterations[1:], start=1):
        if it.sim != first.sim or it.steps != first.steps or it.ran != first.ran:
            problems.append(
                f"iteration {k}: simulated figures or what ran differ from "
                "iteration 0"
            )
            failed += it.executed
    for k, (it, layer) in enumerate(traced[1:], start=1):
        bulks = [m for m in layer if m.startswith("core.bulks.")]
        if any(layer[m] != traced[0][1][m] for m in bulks):
            problems.append(f"traced iteration {k}: core.bulks counts differ")
            failed += it.executed
    attempted = sum(it.attempted for it in iterations)
    e2e = _end_to_end(untraced)
    e2e["failed_share"] = failed / attempted
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        per_layer = {
            m: _median([layer[m] for _, layer in traced])
            for m in traced[0][1]
        }
        per_layer["workloads.generate_s"] = workload.generate_s
        per_layer["telemetry.overhead_share"] = (
            _median([it.total_s for it, _ in traced]) / e2e["total_s"] - 1.0
        )
        for name_, unit in _per_layer_names():
            metrics[name_] = {"value": per_layer[name_], "unit": unit}
    else:
        for name_, unit in BOUNDED:
            metrics[name_] = {"value": e2e[name_], "unit": unit}

    _print_report(name, seed, workload, iterations, e2e, metrics if trace else None,
                  failed, attempted, problems)
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _write_record(
        name, seed, trace, workload, iterations, traced, spans, e2e, result,
        problems,
    )
    print(json.dumps(result))
    return 0 if correct else 1


def _end_to_end(iterations: List[Any]) -> Dict[str, float]:
    first = iterations[0]
    attempted = first.attempted
    return {
        "wall_tps": _median([it.executed / it.timed_s for it in iterations]),
        "total_s": _median([it.total_s for it in iterations]),
        "setup_s": _median([it.setup_s for it in iterations]),
        "verify_s": _median([it.verify_s for it in iterations]),
        "sim_ktps": first.sim["sim_ktps"],
        "sim_p50_ms": first.sim["sim_p50_ms"],
        "sim_p99_ms": first.sim["sim_p99_ms"],
        "max_rate_ktps": first.sim["max_rate_ktps"],
        "abort_share": first.aborted / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _print_report(
    name: str,
    seed: int,
    workload: Any,
    iterations: List[Any],
    e2e: Dict[str, float],
    per_layer: Any,
    failed: int,
    attempted: int,
    problems: List[str],
) -> None:
    first = iterations[0]
    print(f"workload {name}  seed {seed}  iterations {len(iterations)}  "
          f"database rows {workload.rows}  attempted {attempted}  failed {failed}")
    _table([_E2E_HEADER, [name] + [f"{e2e[m]:.6g}" for m, _, _ in END_TO_END]])
    print(f"  sim latency samples: {int(first.sim['sim_samples'])}")
    if first.steps:
        rows = [["step", "rate [txn/s]", "p50 [ms]", "p99 [ms]",
                 "backlog growth [txn]", "meets limit"]]
        rows += [[s["step"], f"{s['rate_tps']:.6g}", f"{s['p50_ms']:.4g}",
                  f"{s['p99_ms']:.4g}", str(s["backlog_growth"]),
                  str(s["meets_limit"])] for s in first.steps]
        _table(rows)
    print(f"  ran: {json.dumps(first.ran, sort_keys=True)}")
    if per_layer is not None:
        total = sum(per_layer[f"{layer}.self_s"]["value"] for layer in LAYERS)
        rows = [["layer", "self [s]", "share of traced total"]]
        rows += [[layer, f"{per_layer[f'{layer}.self_s']['value']:.4f}",
                  f"{per_layer[f'{layer}.self_s']['value'] / total:.1%}"]
                 for layer in LAYERS]
        rows.append(["(traced total)", f"{total:.4f}", ""])
        _table(rows)
        rows = [["per-layer metric", "value", "unit"]]
        rows += [[m, f"{v['value']:.6g}", v["unit"]] for m, v in per_layer.items()]
        _table(rows)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


_E2E_HEADER = ["workload"] + [f"{m} [{unit}]" for m, unit, _ in END_TO_END]


def _table(rows: List[List[str]]) -> None:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _write_record(
    name: str,
    seed: int,
    trace: bool,
    workload: Any,
    iterations: List[Any],
    traced: List[Tuple[Any, Dict[str, float]]],
    spans: List[Any],
    e2e: Dict[str, float],
    result: Dict[str, Any],
    problems: List[str],
) -> None:
    record = {
        "workload": name,
        "seed": seed,
        "result": result,
        "end_to_end": e2e,
        "generate_s": workload.generate_s,
        "iterations": [asdict(it) for it in iterations],
        "traced_layers": [layer for _, layer in traced],
        "spans": spans,
        "problems": problems,
    }
    _record_path(name, seed, trace).write_text(json.dumps(record))


def _record_path(name: str, seed: int, trace: bool) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one summary row per workload."""
    rows = [_E2E_HEADER + ["failed/attempted"]]
    status = 0
    for name in WORKLOAD_NAMES:
        record = _record_path(name, seed, trace)
        record.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            check=False,
        )
        if proc.returncode or not record.is_file():
            status = 1
        if record.is_file():
            written = json.loads(record.read_text())
            e2e, result = written["end_to_end"], written["result"]
            rows.append(
                [name] + [f"{e2e[m]:.6g}" for m, _, _ in END_TO_END]
                + [f"{result['failed']}/{result['attempted']}"]
            )
    print("summary")
    _table(rows)
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(src))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
