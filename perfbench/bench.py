"""One benchmark run: corpus, server start-ups, load phases, gates, metrics."""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence

import gates
from layers import decomposition_lines, flatten, per_layer, percentile
from loadgen import TIMEOUT_S, Record, Request, closed_loop, open_loop
from repro.core.query import Query
from server import REPRO_SERVE, Server, counter_delta
from workloads import Traffic, Workload, build_corpus, write_arena

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Client connections, each with its own sender thread: one per core of
#: the two-core machine the rates were sized on.
CONNECTIONS = 2
#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The closed-loop capacity phase sends a fixed number of requests, so
#: every run does the same work (and a durable run the same number of
#: checkpoints).  It is planned at the seed's rate; the open-loop latency
#: phase gets the rest of ``--seconds``.  A capacity phase still running
#: after three times its planned length stops taking new requests.
CAPACITY_REQUESTS = 120
CAPACITY_RPS_PLAN = 40.0
#: ``/update`` batches timed at the end of the read-only workloads, sent
#: open loop at the workload's rate.  At twice that rate each connection
#: sends within the client's delayed-ACK window, waits ~40 ms per request
#: and the probe backs up.
UPDATE_PROBES = 100
#: Distinct warm-up queries of a distinct-query workload.
WARMUP_QUERIES = 1000
#: Answers compared with the in-process reference route per long-tail run.
REFERENCE_SAMPLE = 200
#: A run whose generator sent its requests later than this (p99, over the
#: moments a sender was free to send) was paced by the client, not the
#: server, and is invalid.
MAX_LAG_P99_MS = 10.0
#: Phases whose requests reached the server the gates check.
GATED = ("warmup", "latency", "capacity", "updates")


def latencies_ms(records: Sequence[Record]) -> List[float]:
    """Latencies in ms; a failed request counts as a timeout, so it misses
    every latency limit."""
    return [(record.latency if record.ok else TIMEOUT_S) * 1000.0
            for record in records]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


class Run:
    """State shared by the phases of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.report: List[str] = []
        self.records: Dict[str, List[Record]] = {}
        self.payloads: Dict[str, dict] = {}
        self.stats: Dict[str, dict] = {}
        #: Every server started, so none outlives the run.
        self.servers: List[Server] = []
        started = time.perf_counter()
        self.dataset = build_corpus()
        self.arena = write_arena(self.dataset, work / "corpus.arena",
                                 workload.shards)
        capacity_s = CAPACITY_REQUESTS / CAPACITY_RPS_PLAN
        self.n_latency = round(workload.rate * (seconds - capacity_s))
        self.traffic = Traffic(workload, self.dataset, seed,
                               total=2 * WARMUP_QUERIES + 2 * self.n_latency
                               + CAPACITY_REQUESTS)
        self.log(f"corpus {self.dataset.describe()} + arena in "
                 f"{time.perf_counter() - started:.2f} s")

    def log(self, line: str) -> None:
        self.report.append(f"[{self.workload.name}] {line}")

    def start(self, index: int, launcher: Sequence[str]) -> Server:
        """Start server number ``index`` (with its own durable directory)."""
        flags = ["--arena", str(self.arena), *self.workload.flags]
        durable_dir = None
        if self.workload.durable:
            durable_dir = self.work / f"durable-{index}"
            flags += ["--durable-dir", str(durable_dir)]
        server = Server(ROOT, [*launcher, *flags],
                        self.work / f"server-{index}.log", durable_dir)
        self.servers.append(server)
        return server

    def phase(self, name: str, server: Server, requests: List[Request],
              rate: float = 0.0, max_seconds: float = 60.0,
              keep_alive: bool = True) -> List[Record]:
        """Run one phase (open loop at ``rate``, else closed loop) and keep
        its records and ``/stats`` counter deltas."""
        before = server.stats()
        started = time.perf_counter()
        if rate:
            records = open_loop(server.port, requests, rate, CONNECTIONS, name)
        else:
            records = closed_loop(server.port, requests, CONNECTIONS, name,
                                  max_seconds, keep_alive)
        elapsed = time.perf_counter() - started
        self.stats[name] = counter_delta(before, server.stats())
        self.records[name] = records
        for record, request in zip(records, requests):
            self.payloads[record.request_id] = request.payload
        failed = sum(not record.ok for record in records)
        errors = sorted({record.error for record in records if not record.ok})
        self.log(f"{name}: {len(records)} attempted, "
                 f"{len(records) - failed} succeeded, {failed} failed in "
                 f"{elapsed:.2f} s {', '.join(errors[:3])}")
        return records

    def all_records(self, phases: Sequence[str] = ()) -> List[Record]:
        return [record for name, records in self.records.items()
                if not phases or name in phases for record in records]

    def lag_p99_ms(self) -> float:
        """How late the generator sent, over the moments a sender was free."""
        return percentile([r.lag for r in self.all_records()], 0.99) * 1000.0

    def warmup(self, name: str, server: Server) -> None:
        """Fill the caches and finish lazy set-up before anything is timed.

        A distinct-query workload still repeats tag sets, whose contexts
        the partitioned executor memoises; 1000 warm-up queries leave
        about a quarter of the measured queries on a new tag set instead
        of half, which kept the median flipping between the two costs.
        """
        if self.workload.distinct:
            warm = self.traffic.take(WARMUP_QUERIES)
        else:
            warm = list(self.traffic.pool)
        self.phase(name, server, warm, keep_alive=False)


def drive(run: Run, server: Server) -> None:
    """Warm-up, latency phase, capacity phase and (read-only) update probe."""
    workload = run.workload
    run.warmup("warmup", server)
    run.phase("latency", server, run.traffic.take(run.n_latency),
              rate=workload.rate)
    run.phase("capacity", server, run.traffic.take(CAPACITY_REQUESTS),
              max_seconds=3 * CAPACITY_REQUESTS / CAPACITY_RPS_PLAN)
    if not workload.update_every:
        run.phase("updates", server, run.traffic.updates(UPDATE_PROBES),
                  rate=workload.rate)


def check(run: Run, server: Server) -> List[str]:
    """Run the workload's correctness gates; ends the server."""
    workload = run.workload
    mismatches: List[str] = []
    if workload.durable:
        server.kill()
        actions, edges = gates.acked_updates(run.all_records(GATED),
                                             run.payloads)
        probes = [Query(seeker=request.payload["seeker"],
                        tags=tuple(request.payload["tags"]),
                        k=request.payload["k"])
                  for request in run.traffic.pool]
        found, lost = gates.recovered_store(
            server.durable_dir, run.dataset, actions, edges, probes)
        run.log(f"write gate: {len(actions)} acked actions, {len(edges)} "
                f"acked friendships, {lost} lost, {len(probes)} probes")
        mismatches += found
    else:
        server.stop()
    if workload.distinct:
        found, compared = gates.reference_route(
            run.arena, run.records["latency"] + run.records["capacity"],
            run.payloads, REFERENCE_SAMPLE, run.seed)
        run.log(f"reference gate: {compared} answers compared")
        mismatches += found
    elif not workload.update_every:
        found = gates.hits_match_computed(
            run.all_records(("warmup", "latency", "capacity")), run.payloads)
        run.log("hit gate: every cache hit compared with its computed answer")
        mismatches += found
    return mismatches


def end_to_end(run: Run, setup_s: float, rss_mb: float) -> Dict[str, object]:
    latency = run.records["latency"]
    queries = [r for r in latency if r.kind == "query"]
    updates = [r for r in latency if r.kind == "update"] \
        or run.records["updates"]
    capacity = run.records["capacity"]
    capacity_s = max(r.done for r in capacity) - min(r.sent for r in capacity)
    query_ms = latencies_ms(queries)
    update_ms = latencies_ms(updates)
    run.log(f"{len(queries)} query samples, {len(updates)} update samples")
    for label, values in (("query", query_ms), ("update", update_ms)):
        run.log(f"{label} ms p50/90/95/98/99/max " + " ".join(
            f"{percentile(values, q):.2f}"
            for q in (0.5, 0.9, 0.95, 0.98, 0.99, 1.0)))
    # The tail percentiles above are reported, not returned as metrics: on
    # this kind of shared two-core host a run's p95 moved by 40-150%
    # between seeds while the medians moved by under 20%.
    return {
        "setup_s": metric(setup_s, "s"),
        "rss_mb": metric(rss_mb, "MiB"),
        "query_p50_ms": metric(percentile(query_ms, 0.50), "ms"),
        "update_p50_ms": metric(percentile(update_ms, 0.50), "ms"),
        "capacity_rps": metric(sum(r.ok for r in capacity) / capacity_s,
                               "1/s"),
    }


#: The per-layer counters ``/stats`` keeps, as ``block: [counter, ...]``.
#: The WAL counters restart with each checkpoint's new segment, so across
#: a checkpoint their delta is the new segment's count less the old one's;
#: the traced run's ``wal.*`` metrics count every append.
LAYER_COUNTERS = {
    "result_cache": ("hits", "misses", "evictions", "invalidations"),
    "proximity_cache": ("hits", "misses", "invalidations"),
    "proximity_shards": ("shard_hits", "overlay_hits", "refinements",
                         "repairs"),
    "partitions": ("searches", "partitions_scanned", "partitions_pruned",
                   "candidates_pruned", "candidates_scanned"),
    "write_path": ("compactions",),
    "durability": ("checkpoints",),
}


def layer_counters(delta: Dict[str, dict]) -> Dict[str, dict]:
    """The per-layer counter deltas of one phase's ``/stats`` delta."""
    out = {block: {name: delta[block][name] for name in names
                   if name in delta[block]}
           for block, names in LAYER_COUNTERS.items() if block in delta}
    wal = delta.get("durability", {}).get("wal")
    if wal:
        out["wal"] = {name: wal[name] for name in
                      ("records_appended", "bytes_appended", "fsyncs")}
    return out


def query_p50_ms(records: Sequence[Record]) -> float:
    return percentile(latencies_ms([r for r in records if r.kind == "query"]),
                      0.5)


def untraced(run: Run) -> Dict[str, object]:
    setups = []
    for index in range(SETUPS):
        server = run.start(index, REPRO_SERVE)
        setups.append(server.setup_s)
        if index < SETUPS - 1:
            server.stop()
    run.log("setup_s " + " ".join(f"{s:.3f}" for s in setups))
    drive(run, server)
    rss_mb = server.peak_rss_mb()
    mismatches = check(run, server)
    return {"mismatches": mismatches,
            "metrics": end_to_end(run, statistics.median(setups), rss_mb)}


def traced(run: Run) -> Dict[str, object]:
    """Untraced reference latency phase, then the traced server's run."""
    server = run.start(0, REPRO_SERVE)
    run.warmup("reference-warmup", server)
    run.phase("reference", server, run.traffic.take(run.n_latency // 4),
              rate=run.workload.rate)
    server.stop()
    traces_path = run.work / "traces.json"
    server = run.start(1, [str(HERE / "traced_serve.py"), str(traces_path),
                           "serve"])
    drive(run, server)
    rss_mb = server.peak_rss_mb()
    server.dump_traces(traces_path)
    dump = json.loads(traces_path.read_text())
    run.log(f"traced server: setup {server.setup_s:.3f} s, peak RSS "
            f"{rss_mb:.1f} MiB, {len(dump['traces'])} of {dump['roots']} "
            "traces finished by the dump")
    mismatches = check(run, server)
    spans = flatten(dump)
    for line in decomposition_lines(spans, run.records):
        run.log(line)
    metrics = per_layer(
        spans, run.records, run.stats, server.setup_s,
        untraced_query_p50_ms=query_p50_ms(run.records["reference"]),
        traced_query_p50_ms=query_p50_ms(run.records["latency"]),
        lag_p99_ms=run.lag_p99_ms())
    return {"mismatches": mismatches, "metrics": metrics}


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path) -> Dict[str, object]:
    """One run of ``workload``; returns the result object plus its report."""
    run = Run(workload, seed, seconds, work)
    try:
        outcome = traced(run) if trace else untraced(run)
    finally:
        for server in run.servers:
            server.kill()
    mismatches = outcome["mismatches"]
    for name in ("latency", "capacity", "updates"):
        if name in run.stats:
            run.log(f"/stats deltas over {name}: "
                    f"{json.dumps(layer_counters(run.stats[name]))}")
    records = run.all_records()
    lag_p99_ms = run.lag_p99_ms()
    run.log(f"generator lag p99 {lag_p99_ms:.3f} ms")
    if lag_p99_ms > MAX_LAG_P99_MS:
        mismatches.append(f"generator lag p99 {lag_p99_ms:.2f} ms exceeds "
                          f"{MAX_LAG_P99_MS} ms: the client set the pace")
    for line in mismatches[:20]:
        run.log(f"MISMATCH {line}")
    metrics = outcome["metrics"]
    for name, entry in metrics.items():
        run.log(f"{name} = {entry['value']:.4f} {entry['unit']}")
    return {"correct": not mismatches, "attempted": len(records),
            "failed": sum(not record.ok for record in records),
            "metrics": metrics, "report": run.report}
