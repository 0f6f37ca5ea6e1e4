"""Per-layer metrics from the traced server's traces, client records and
``/stats`` deltas.

``traced_serve.py`` dumps the program's own traces.  A query has two: the
launcher's ``http:<id>`` trace (``http_api.do_POST``) and ``serve``'s
``request`` trace under the bare id (``cache.get``, then on a worker
``service.execute`` > ``engine.run``).  Along the blocking path the self
times telescope: the client round trip is ``wire + http_api.self +
service.self + engine.run`` for every request, where

* ``wire`` = round trip - ``do_POST`` (socket, kernel, client parse),
* ``http_api.self`` = ``do_POST`` - ``request`` (or ``updates.apply``):
  parse, serialise, write,
* ``service.self`` = ``request`` - ``engine.run`` (cache probe, queueing,
  future hand-off; all of ``request`` on a hit).

Their medians need not add up to the median client latency, which is
timed from the scheduled send; :func:`decomposition_lines` compares the
two and flags a phase where they differ by more than 10%.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set

MEASURED = ("latency", "capacity", "updates")
#: The blocking-path medians should add up to the median client latency
#: within this share; a phase outside it is flagged in the report.
SUM_TOLERANCE = 0.10
HTTP_PREFIX = "http:"


class Span(NamedTuple):
    """One span of a dumped trace, with ``perf_counter`` seconds."""

    request_id: str
    parent_id: object
    name: str
    start: float
    end: float
    attributes: dict


def flatten(dump: dict) -> List[Span]:
    """Every span of a ``traced_serve.py`` dump; a span of an ``http:<id>``
    trace carries the bare request id."""
    spans = []
    for trace in dump["traces"]:
        rid = trace["trace_id"]
        if rid.startswith(HTTP_PREFIX):
            rid = rid[len(HTTP_PREFIX):]
        for span in trace["spans"]:
            start = span["start_s"]
            spans.append(Span(rid, span["parent_id"], span["name"], start,
                              start + span["duration_ms"] / 1000.0,
                              span["attributes"]))
    return spans


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ms(span: Span) -> float:
    return (span.end - span.start) * 1000.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sum_stats(stats: Dict[str, dict], phases: Iterable[str], *path: str
               ) -> Dict[str, float]:
    """Sum one ``/stats`` block's counter deltas over ``phases``."""
    total: Dict[str, float] = defaultdict(float)
    for phase in phases:
        block = stats.get(phase, {})
        for key in path:
            block = block.get(key, {}) if isinstance(block, dict) else {}
        for name, value in block.items():
            if isinstance(value, (int, float)):
                total[name] += value
    return total


def _overlap(a: Span, b: Span) -> float:
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def _by_request(spans: List[Span]) -> Dict[str, Dict[str, List[Span]]]:
    """``request id -> span name -> spans``."""
    by_rid: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for span in spans:
        by_rid[span.request_id][span.name].append(span)
    return by_rid


class Decomposition:
    """Per-request blocking-path split of one phase's answered queries."""

    def __init__(self, records, by_rid: Dict[str, Dict[str, list]]) -> None:
        self.latency: List[float] = []
        self.send_lag: List[float] = []
        self.round_trip: List[float] = []
        self.wire: List[float] = []
        self.http_self: List[float] = []
        self.service_self: List[float] = []
        self.engine: List[float] = []
        self.queue_wait: List[float] = []
        for record in records:
            if not record.ok or record.kind != "query":
                continue
            spans = by_rid.get(record.request_id, {})
            post = spans.get("http_api.do_POST")
            serve = spans.get("request")
            if not post or not serve:
                continue
            post, serve = post[0], serve[0]
            run = spans.get("engine.run")
            engine_ms = _ms(run[0]) if run else 0.0
            round_trip = record.round_trip * 1000.0
            self.latency.append(record.latency * 1000.0)
            self.send_lag.append((record.sent - record.scheduled) * 1000.0)
            self.round_trip.append(round_trip)
            self.wire.append(round_trip - _ms(post))
            self.http_self.append(_ms(post) - _ms(serve))
            self.service_self.append(_ms(serve) - engine_ms)
            self.engine.append(engine_ms)
            if run:
                self.queue_wait.append((run[0].start - serve.start) * 1000.0)

    def sum_ratio(self) -> float:
        """Sum of the four self-time medians over the median client
        latency (timed from the scheduled send)."""
        parts = (self.wire, self.http_self, self.service_self, self.engine)
        return _share(sum(_median(part) for part in parts),
                      _median(self.latency))


def per_layer(spans: List[Span], records: Dict[str, list],
              stats: Dict[str, dict], setup_s: float,
              untraced_query_p50_ms: float, traced_query_p50_ms: float,
              lag_p99_ms: float) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, named ``<module>.<metric>``.

    Span metrics count the measured phases' requests and the background
    traces (set-up, checkpoints), never the warm-up's requests.
    """
    phases = [phase for phase in MEASURED if phase in records]
    client_rids: Set[str] = {record.request_id for phase_records
                             in records.values() for record in phase_records}
    measured_rids = {record.request_id for phase in phases
                     for record in records[phase]}
    by_rid = _by_request(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.request_id in measured_rids \
                or span.request_id not in client_rids:
            by_name[span.name].append(span)

    def durations(name: str) -> List[float]:
        return [_ms(span) for span in by_name[name]]

    open_loop = Decomposition(records["latency"], by_rid)
    closed_loop = Decomposition(records["capacity"], by_rid)
    queries = [record for phase in phases for record in records[phase]
               if record.ok and record.kind == "query"]
    updates = [record for phase in phases for record in records[phase]
               if record.ok and record.kind == "update"]
    outcomes = [record.body["outcome"] for record in queries]
    computed = [record.body["accounting"] for record in queries
                if record.body["outcome"] == "computed"]

    update_http_self = []
    for record in updates:
        spans_of = by_rid.get(record.request_id, {})
        if spans_of.get("http_api.do_POST") and spans_of.get("updates.apply"):
            update_http_self.append(_ms(spans_of["http_api.do_POST"][0])
                                    - _ms(spans_of["updates.apply"][0]))

    result_cache = _sum_stats(stats, phases, "result_cache")
    proximity_cache = _sum_stats(stats, phases, "proximity_cache")
    shards = _sum_stats(stats, phases, "proximity_shards")
    partitions = _sum_stats(stats, phases, "partitions")
    cache_gets = by_name["cache.get"]
    applies = [span for span in by_name["updates.apply"]
               if span.request_id in measured_rids]
    update_appends = [span for span in by_name["wal.append"]
                      if span.request_id in measured_rids]
    checkpoints = [span for span in by_name["durable.checkpoint"]
                   if span.attributes.get("bytes")]
    stalled = [_ms(apply) for apply in applies
               if any(_overlap(apply, cp) for cp in checkpoints)]
    setup_parts = {name: sum(_ms(span) for span in by_name[name]
                             if span.parent_id is None) / 1000.0
                   for name in ("setup.arena_open", "setup.engine",
                                "setup.durable")}
    searches = partitions.get("searches", 0.0)

    def per_search(key: str) -> float:
        return _share(partitions.get(key, 0.0), searches)

    def mean_accounting(key: str) -> float:
        return _share(sum(entry[key] for entry in computed), len(computed))

    values = {
        "http_api.wire_ms": (_median(closed_loop.wire), "ms"),
        "http_api.wire_open_ms": (_median(open_loop.wire), "ms"),
        "http_api.self_ms": (_median(open_loop.http_self), "ms"),
        "http_api.update_self_ms": (_median(update_http_self), "ms"),
        "service.self_ms": (_median(open_loop.service_self), "ms"),
        "service.queue_wait_ms": (_median(open_loop.queue_wait
                                          + closed_loop.queue_wait), "ms"),
        "service.hit_share": (_share(outcomes.count("hit"), len(outcomes)),
                              "share"),
        "service.coalesced_share": (
            _share(outcomes.count("coalesced"), len(outcomes)), "share"),
        "service.computed_share": (
            _share(outcomes.count("computed"), len(outcomes)), "share"),
        "cache.hit_rate": (_share(result_cache.get("hits", 0.0),
                                  result_cache.get("hits", 0.0)
                                  + result_cache.get("misses", 0.0)), "share"),
        "cache.invalidations_per_update": (
            _share(result_cache.get("invalidations", 0.0), len(updates)),
            "count"),
        "cache.evictions": (result_cache.get("evictions", 0.0), "count"),
        "cache.get_ms": (_median([_ms(span) for span in cache_gets]), "ms"),
        "engine.run_p50_ms": (_median(durations("engine.run")), "ms"),
        "engine.run_p99_ms": (percentile(durations("engine.run"), 0.99), "ms"),
        "plan.route_ms": (_median(durations("plan.route")), "ms"),
        "partition_exec.search_ms": (
            _median(durations("executor.search")), "ms"),
        "partition_exec.shards_scanned": (per_search("partitions_scanned"),
                                          "count"),
        "partition_exec.shards_pruned": (per_search("partitions_pruned"),
                                         "count"),
        "partition_exec.candidates_pruned": (per_search("candidates_pruned"),
                                             "count"),
        "partition_exec.candidates_scanned": (
            per_search("candidates_scanned"), "count"),
        "topk.search_ms": (_median(durations("algorithm.search")), "ms"),
        "topk.sequential_accesses": (mean_accounting("sequential_accesses"),
                                     "count"),
        "topk.random_accesses": (mean_accounting("random_accesses"), "count"),
        "topk.social_accesses": (mean_accounting("social_accesses"), "count"),
        "topk.users_visited": (mean_accounting("users_visited"), "count"),
        "proximity.vector_ms": (_median(durations("proximity.vector")), "ms"),
        "proximity.cache_hit_rate": (
            _share(proximity_cache.get("hits", 0.0),
                   proximity_cache.get("hits", 0.0)
                   + proximity_cache.get("misses", 0.0)), "share"),
        "proximity.shard_hit_rate": (
            _share(shards.get("shard_hits", 0.0), shards.get("lookups", 0.0)),
            "share"),
        "proximity.refinements": (shards.get("refinements", 0.0), "count"),
        "updates.apply_p50_ms": (_median([_ms(s) for s in applies]), "ms"),
        "updates.apply_p95_ms": (
            percentile([_ms(s) for s in applies], 0.95), "ms"),
        "updates.pending_delta_max": (
            max((s.attributes["pending_delta"] for s in applies), default=0),
            "count"),
        "wal.append_ms": (_median(durations("wal.append")), "ms"),
        "wal.bytes_per_update": (_share(
            sum(s.attributes["bytes"] for s in update_appends), len(applies)),
            "B"),
        "wal.fsyncs_per_update": (_share(
            sum(s.attributes.get("wal_fsyncs", 0) for s in applies),
            len(applies)), "count"),
        "durable.checkpoints": (len(checkpoints), "count"),
        "durable.checkpoint_ms": (
            _median([_ms(span) for span in checkpoints]), "ms"),
        "durable.checkpoint_bytes": (
            _share(sum(s.attributes["bytes"] for s in checkpoints),
                   len(checkpoints)),
            "B"),
        "durable.writer_stall_ms": (_share(sum(stalled), len(stalled)), "ms"),
        "setup.arena_open_s": (setup_parts["setup.arena_open"], "s"),
        "setup.engine_s": (setup_parts["setup.engine"], "s"),
        "setup.durable_s": (setup_parts["setup.durable"], "s"),
        "setup.process_s": (setup_s - sum(setup_parts.values()), "s"),
        "loadgen.lag_p99_ms": (lag_p99_ms, "ms"),
        "trace.overhead_ratio": (
            _share(traced_query_p50_ms, untraced_query_p50_ms), "ratio"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in values.items()}


def decomposition_lines(spans: List[Span], records: Dict[str, list]
                        ) -> List[str]:
    """Human-readable medians of the blocking-path split per phase, each
    flagged when the medians miss the median client latency by more than
    :data:`SUM_TOLERANCE`."""
    by_rid = _by_request(spans)
    lines = []
    for phase in ("latency", "capacity"):
        split = Decomposition(records.get(phase, []), by_rid)
        ratio = split.sum_ratio()
        flag = "" if abs(ratio - 1.0) <= SUM_TOLERANCE else (
            f"  FLAG: outside 1 +- {SUM_TOLERANCE}")
        lines.append(
            f"{phase}: client latency p50 {_median(split.latency):.3f} ms "
            f"(send lag p50 {_median(split.send_lag):.3f} ms, round trip "
            f"p50 {_median(split.round_trip):.3f} ms); medians: "
            f"wire {_median(split.wire):.3f} + http_api "
            f"{_median(split.http_self):.3f} + service "
            f"{_median(split.service_self):.3f} + engine "
            f"{_median(split.engine):.3f} = {ratio:.3f} of the client "
            f"latency, {len(split.latency)} requests{flag}")
    return lines
