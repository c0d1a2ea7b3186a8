"""The benchmark's workloads.

Each workload generates its inputs from the seed once, before anything
is timed, then runs iterations of set-up -> timed region -> verification
through the library's public API with the program's defaults
(``EngineOptions()`` and ``strategy="auto"``). One iteration returns an
:class:`Iteration`; ``run.py`` repeats iterations and reports medians.

* ``tm1-serve``: open loop on the simulated clock. TM1 at SF4 through
  one ``GPUTx`` behind ``ServeRuntime`` with the adaptive bulk former
  and admission control, Poisson rate steps 400k / 800k / 1.6M tps.
* ``tpcc-bulk``: closed loop with one client. TPC-C full mix at 8
  warehouses; the next bulk is submitted when the previous returns.
* ``smallbank-cluster``: open loop on the simulated clock. SmallBank at
  SF4, zipfian theta 0.9, as a benchmark-owned ``Scenario`` through
  ``run_scenario``: 4 shards, range router, durable with one replica,
  one shard kill; Poisson rate steps 2.5k / 5k / 10k tps.

Open-loop arrivals carry their step's label as the tenant tag, so the
serve report's per-tenant summaries are the per-step latency figures.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro import (
    AdaptiveBulkFormer,
    AdmissionController,
    Arrival,
    CpuEngine,
    GPUTx,
    ServeRuntime,
)
from repro.scenarios import (
    Scenario,
    ScenarioSetup,
    ShardKill,
    check_definition1,
    run_scenario,
    verify_recovery,
)
from repro.workloads import smallbank, tm1, tpcc
from repro.workloads.base import make_rng, poisson_arrival_times

#: Strategy labels Algorithm 1 can produce (``ExecutionResult.strategy``).
STRATEGIES = ("kset", "part", "part(tpl-fallback)", "tpl")
#: Backend labels ``GPUTx.execute_bulk`` stamps on a result.
BACKENDS = ("interpreted", "vectorized", "mixed")
#: Simulated phases the workloads produce. Any other phase (replication,
#: migration) is summed into ``sim.other_s``, which takes part in the
#: identity check across iterations but is not reported: it is always 0.
SIM_PHASES = (
    "generation", "execution", "transfer_in", "transfer_out", "profiling",
    "coordinator", "sync", "wal_sync", "checkpoint", "recovery",
)

perf = time.perf_counter


@dataclass
class Iteration:
    """One set-up -> timed region -> verification pass."""

    setup_s: float
    timed_s: float
    verify_s: float
    attempted: int
    executed: int
    #: Logic aborts the serial oracle also produces.
    aborted: int
    shed: int = 0
    diverged: int = 0
    lost: int = 0
    #: Simulated-clock figures: deterministic for a seed.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-step rows of an open-loop workload (for the printed table).
    steps: List[Dict[str, Any]] = field(default_factory=list)
    #: What executed: bulks per ``strategy@backend``, backend counters.
    ran: Dict[str, Any] = field(default_factory=dict)
    #: Serve-layer figures from the report (zero without a server).
    serve: Dict[str, float] = field(default_factory=dict)
    #: Human-readable correctness findings; empty when all checks pass.
    problems: List[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.setup_s + self.timed_s + self.verify_s

    @property
    def failed(self) -> int:
        return self.shed + self.diverged + self.lost


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------
def _sub_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in make_rng(seed).integers(0, 2**31 - 1, size=n)]


def _stepped_arrivals(
    steps: Sequence[Tuple[str, float]],
    specs_of: Any,
    seed: int,
) -> Tuple[List[Arrival], List[Tuple[str, float, int, int]]]:
    """Concatenate one Poisson segment per ``(label, rate)`` step.

    ``specs_of(k, seed)`` draws step ``k``'s transactions. Returns the
    arrivals and, per step, ``(label, rate, first, end)`` indices.
    """
    seeds = _sub_seeds(seed, 2 * len(steps))
    arrivals: List[Arrival] = []
    bounds = []
    start = 0.0
    for k, (label, rate) in enumerate(steps):
        specs = specs_of(k, seeds[2 * k])
        times = poisson_arrival_times(
            make_rng(seeds[2 * k + 1]), len(specs), rate, start=start
        )
        first = len(arrivals)
        arrivals.extend(
            Arrival(name, tuple(params), float(t), label)
            for (name, params), t in zip(specs, times)
        )
        bounds.append((label, rate, first, len(arrivals)))
        start = float(times[-1])
    return arrivals, bounds


def _serve_figures(
    report: Any,
    arrivals: Sequence[Arrival],
    bounds: Sequence[Tuple[str, float, int, int]],
    limit_s: float,
) -> Tuple[Dict[str, float], List[Dict[str, Any]], Dict[str, float]]:
    """Simulated figures of one served stream.

    A step qualifies when its p99 meets ``limit_s`` and its backlog
    (arrived minus completed) grew by less than what arrives in one
    latency limit at the step's rate. ``max_rate_ktps`` is the realized
    arrival rate of the highest qualifying step. ``sim_p50_ms`` and
    ``sim_p99_ms`` are taken at the lowest step: past the knee the tail
    follows the backlog's random walk and differs widely between seeds.
    """
    times = [a.submit_time for a in arrivals]
    done = sorted((b.start_s + b.seconds, b.executed) for b in report.bulks)
    done_t = [t for t, _ in done]
    done_n = np.cumsum([n for _, n in done]).tolist()

    def backlog(t: float) -> int:
        k = bisect_right(done_t, t)
        return bisect_right(times, t) - (done_n[k - 1] if k else 0)

    steps = []
    max_rate = 0.0
    for label, rate, first, end in bounds:
        t0, t1 = times[first], times[end - 1]
        total = report.tenants[label]["total"]
        growth = backlog(t1) - backlog(t0)
        realized = (end - first - 1) / (t1 - t0)
        ok = total.p99 <= limit_s and growth <= rate * limit_s
        if ok:
            max_rate = max(max_rate, realized)
        steps.append({
            "step": label,
            "rate_tps": realized,
            "p50_ms": total.p50 * 1e3,
            "p99_ms": total.p99 * 1e3,
            "backlog_growth": growth,
            "meets_limit": ok,
        })
    lowest = report.tenants[bounds[0][0]]
    sim = {
        "sim_ktps": report.sustained_ktps,
        "sim_p50_ms": steps[0]["p50_ms"],
        "sim_p99_ms": steps[0]["p99_ms"],
        "sim_samples": float(lowest.count),
        "max_rate_ktps": max_rate / 1e3,
    }
    sim.update(_phases(report.breakdown.phases))
    serve = {
        "bulks": float(len(report.bulks)),
        "mean_bulk": report.mean_bulk,
        "sim_queue_p99_ms": report.latency["queue"].p99 * 1e3,
        "shed": float(report.admission.rejected),
    }
    return sim, steps, serve


def _phases(phases: Dict[str, float]) -> Dict[str, float]:
    out = {f"sim.{p}_s": 0.0 for p in SIM_PHASES}
    out["sim.other_s"] = 0.0
    for phase, seconds in phases.items():
        key = f"sim.{phase}_s"
        out[key if key in out else "sim.other_s"] += seconds
    return out


def _ran(engines: Sequence[GPUTx]) -> Dict[str, Any]:
    """Which strategies and backends executed, read off the engines."""
    bulks: Counter = Counter()
    for engine in engines:
        for strategy in STRATEGIES:
            for backend in BACKENDS:
                n = engine.wall_feedback.observations(strategy, backend)
                if n:
                    bulks[f"{strategy}@{backend}"] += n
    backends = sorted({type(e.backend).__name__ for e in engines})
    return {
        "backend": backends,
        "bulks": dict(sorted(bulks.items())),
        "waves_vectorized": sum(
            getattr(e.backend, "waves_vectorized", 0) for e in engines
        ),
    }


def _oracle_check(
    engine: GPUTx,
    oracle_db: Any,
    procedures: Sequence[Any],
    transactions: Sequence[Any],
) -> Tuple[int, int, List[str]]:
    """Replay ``transactions`` serially on ``oracle_db`` (Definition 1).

    Returns (transactions diverging, logic aborts the oracle agrees
    with, findings). Each transaction's commit flag and, when committed,
    its result value must match; so must the final logical state.
    """
    oracle = CpuEngine(oracle_db, procedures=procedures, num_cores=1)
    diverged = aborted = 0
    first = None
    for want in oracle.execute(transactions).results:
        got = engine.results.get(want.txn_id)
        if (
            got is None
            or got.committed != want.committed
            or (want.committed and got.value != want.value)
        ):
            diverged += 1
            if first is None:
                first = want.txn_id
        elif not want.committed:
            aborted += 1
    problems = []
    if diverged:
        problems.append(
            f"{diverged} transaction outcomes differ from the serial oracle "
            f"(first txn {first})"
        )
    got, want = engine.db.logical_state(), oracle_db.logical_state()
    tables = sorted(t for t in set(got) | set(want) if got.get(t) != want.get(t))
    if tables:
        problems.append(f"logical state differs from the serial oracle in {tables}")
        diverged = max(diverged, 1)
    return diverged, aborted, problems


# ---------------------------------------------------------------------------
# tm1-serve
# ---------------------------------------------------------------------------
class Tm1Serve:
    name = "tm1-serve"
    scale_factor = 4
    steps = (("400k", 400_000.0), ("800k", 800_000.0), ("1600k", 1_600_000.0))
    #: Logical transactions per step (split lookups add ~18%).
    txns_per_step = 8_000
    p99_limit_s = 0.004

    def __init__(self, seed: int, trace: Any) -> None:
        self.trace = trace
        db = tm1.build_database(self.scale_factor)
        start = perf()
        self.arrivals, self.bounds = _stepped_arrivals(
            self.steps,
            lambda k, s: tm1.generate_transactions(
                db, self.txns_per_step, seed=s
            ),
            seed,
        )
        self.generate_s = perf() - start
        self.rows = sum(db.table(t).n_rows for t in db.tables)

    def run_once(self) -> Iteration:
        trace = self.trace
        start = perf()
        with trace.span("storage.build"):
            db = tm1.build_database(self.scale_factor)
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        engine.initialize_device()
        cloned = perf()
        oracle_db = db.clone()
        timed = perf()
        admission = AdmissionController(record_admitted=True)
        runtime = ServeRuntime(
            engine, former=AdaptiveBulkFormer(), admission=admission
        )
        report = runtime.run(self.arrivals)
        verified = perf()
        diverged, aborted, problems = _oracle_check(
            engine, oracle_db, tm1.PROCEDURES, admission.admitted_log
        )
        end = perf()
        sim, steps, serve = _serve_figures(
            report, self.arrivals, self.bounds, self.p99_limit_s
        )
        return Iteration(
            setup_s=cloned - start,
            timed_s=verified - timed,
            verify_s=(timed - cloned) + (end - verified),
            attempted=len(self.arrivals),
            executed=report.executed,
            aborted=aborted,
            shed=report.admission.rejected,
            diverged=diverged,
            lost=len(admission.admitted_log) - report.executed,
            sim=sim,
            steps=steps,
            ran=_ran([engine]),
            serve=serve,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# tpcc-bulk
# ---------------------------------------------------------------------------
class TpccBulk:
    name = "tpcc-bulk"
    warehouses = 8
    #: Logical transactions per bulk (by-name lookups and the ten
    #: per-district deliveries make ~1.6x as many physical ones).
    txns_per_bulk = 2_000
    bulks = 2

    def __init__(self, seed: int, trace: Any) -> None:
        self.trace = trace
        db = tpcc.build_database(self.warehouses)
        start = perf()
        self.specs = [
            tpcc.generate_transactions(db, self.txns_per_bulk, seed=s)
            for s in _sub_seeds(seed, self.bulks)
        ]
        self.generate_s = perf() - start
        self.rows = sum(db.table(t).n_rows for t in db.tables)

    def run_once(self) -> Iteration:
        trace = self.trace
        start = perf()
        with trace.span("storage.build"):
            db = tpcc.build_database(self.warehouses)
        engine = GPUTx(db, procedures=tpcc.PROCEDURES)
        engine.initialize_device()
        cloned = perf()
        oracle_db = db.clone()
        timed = perf()
        submitted = []
        latencies: List[float] = []
        results = []
        for specs in self.specs:
            engine.submit_many(specs)
            submitted.extend(engine.pool.peek())
            clock = 0.0
            while len(engine.pool):
                result = engine.run_bulk("auto")
                clock += result.seconds
                latencies.extend([clock] * len(result.results))
                results.append(result)
        verified = perf()
        diverged, aborted, problems = _oracle_check(
            engine, oracle_db, tpcc.PROCEDURES, submitted
        )
        end = perf()
        executed = sum(len(r.results) for r in results)
        sim_s = sum(r.seconds for r in results)
        phases: Counter = Counter()
        for r in results:
            phases.update(r.breakdown.phases)
        sim = {
            "sim_ktps": executed / sim_s / 1e3,
            "sim_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "sim_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
            "sim_samples": float(len(latencies)),
            # A closed loop never queues: the rate its one client
            # sustains is the highest it can offer.
            "max_rate_ktps": executed / sim_s / 1e3,
        }
        sim.update(_phases(phases))
        return Iteration(
            setup_s=cloned - start,
            timed_s=verified - timed,
            verify_s=(timed - cloned) + (end - verified),
            attempted=len(submitted),
            executed=executed,
            aborted=aborted,
            diverged=diverged,
            lost=len(submitted) - executed,
            sim=sim,
            ran=_ran([engine]),
            serve={"bulks": 0.0, "mean_bulk": 0.0, "sim_queue_p99_ms": 0.0,
                   "shed": 0.0},
            problems=problems,
        )


# ---------------------------------------------------------------------------
# smallbank-cluster
# ---------------------------------------------------------------------------
class SmallbankCluster:
    name = "smallbank-cluster"
    scale_factor = 4
    theta = 0.9
    steps = (("2.5k", 2_500.0), ("5k", 5_000.0), ("10k", 10_000.0))
    txns_per_step = 4_000
    #: Over 20 seeds the 5k-step p99 ranged 10-19 ms and the 10k-step
    #: p99 159-299 ms: a 40 ms limit keeps the knee between those two
    #: steps for every seed.
    p99_limit_s = 0.040
    shards = 4
    #: The bulk former's p95 target.
    slo_p95_s = 0.005
    kill = ShardKill(shard=1, at_bulk=3)
    #: The recovery twins replay the first step only: the kill lands
    #: there, and the twins stay cheaper than the run they check.
    twin_scale = 1 / 3

    def __init__(self, seed: int, trace: Any) -> None:
        self.trace = trace
        self.seed = seed
        db = smallbank.build_database(self.scale_factor)
        start = perf()
        self.arrivals, self.bounds = _stepped_arrivals(
            self.steps,
            lambda k, s: smallbank.generate_transactions(
                db, self.txns_per_step, seed=s, theta=self.theta
            ),
            seed,
        )
        self.generate_s = perf() - start
        self.rows = sum(db.table(t).n_rows for t in db.tables)
        self.scenario = Scenario(
            name="bench-smallbank-cluster",
            description="SmallBank rate steps on a durable 4-shard cluster",
            workload="smallbank",
            setup=self._setup,
            mode="serve",
            n_txns=len(self.arrivals),
            n_shards=self.shards,
            router="range",
            faults=(self.kill,),
            durable=True,
            target_p95_s=self.slo_p95_s,
            seed=seed,
        )
        self._first_pull = 0.0

    def _setup(self, n: int, seed: int) -> ScenarioSetup:
        with self.trace.span("storage.build"):
            db = smallbank.build_database(self.scale_factor)
        return ScenarioSetup(
            db=db, procedures=smallbank.PROCEDURES, arrivals=self._stream(n)
        )

    def _stream(self, n: int) -> Iterator[Arrival]:
        # The serve loop pulls the first arrival right after the cluster
        # is built: that pull ends set-up and starts the timed region.
        self._first_pull = perf()
        yield from self.arrivals[:n]

    def run_once(self) -> Iteration:
        trace = self.trace
        start = perf()
        run = run_scenario(self.scenario, scale=1.0, seed=self.seed)
        timed_end = perf()
        setup_end = self._first_pull
        with trace.span("scenarios.definition1"):
            definition1 = check_definition1(self.scenario, run)
        with trace.span("scenarios.recovery_twin"):
            recovery = verify_recovery(
                self.scenario, scale=self.twin_scale, seed=self.seed
            )
        end = perf()
        report = run.serve
        problems = [
            str(check) for check in (definition1, recovery) if not check.passed
        ]
        sim, steps, serve = _serve_figures(
            report, self.arrivals, self.bounds, self.p99_limit_s
        )
        return Iteration(
            setup_s=setup_end - start,
            timed_s=timed_end - setup_end,
            verify_s=end - timed_end,
            attempted=len(self.arrivals),
            executed=run.executed,
            # check_definition1 compares final state only; with it
            # passing, the run's aborts are the oracle's.
            aborted=run.aborted if not problems else 0,
            shed=report.admission.rejected,
            diverged=run.executed if problems else 0,
            lost=len(run.admitted) - run.executed,
            sim=sim,
            steps=steps,
            ran=_ran(run.cluster.shards),
            serve=serve,
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Tm1Serve, TpccBulk, SmallbankCluster)}
