"""Correctness gates: served answers and the durable write path.

Each gate returns a list of human-readable mismatch strings; an empty list
means the gate passed.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from loadgen import Record
from repro.config import EngineConfig, ProximityConfig
from repro.core.engine import SocialSearchEngine
from repro.core.query import Query
from repro.graph import SocialGraphBuilder
from repro.storage.dataset import Dataset
from repro.storage.durable import DurableStore
from repro.storage.tagging import TaggingAction


def _key(payload) -> Tuple[int, Tuple[str, ...], int]:
    return (int(payload["seeker"]), tuple(sorted(payload["tags"])),
            int(payload["k"]))


def answer(body) -> List[Tuple[int, float]]:
    """The comparable part of a ``/query`` response: ranked ids and scores."""
    return [(int(item["item_id"]), float(item["score"]))
            for item in body["items"]]


def _answer_of(result) -> List[Tuple[int, float]]:
    return [(item.item_id, item.score) for item in result.items]


def hits_match_computed(records: Iterable[Record], payloads) -> List[str]:
    """Every cache hit equals the computed answer of the same query.

    ``payloads`` maps request ids to request payloads.  Valid only for
    read-only traffic, where a query's answer never changes.
    """
    computed: Dict[object, List[Tuple[int, float]]] = {}
    hits: List[Tuple[object, List[Tuple[int, float]]]] = []
    for record in records:
        if not (record.ok and record.kind == "query"):
            continue
        key = _key(payloads[record.request_id])
        if record.body["outcome"] == "hit":
            hits.append((key, answer(record.body)))
        else:
            computed.setdefault(key, answer(record.body))
    mismatches = [f"hit for {key} differs from its computed answer"
                  for key, got in hits if key in computed
                  and computed[key] != got]
    missing = {key for key, _ in hits if key not in computed}
    return mismatches + [f"hit for {key} has no computed answer to compare"
                         for key in sorted(missing)]


def reference_route(arena: Path, records: Sequence[Record], payloads,
                    sample: int, seed: int) -> "tuple[List[str], int]":
    """Compare a seeded sample of answers with the P=1 online-PPR exact route.

    Returns ``(mismatches, compared)``.
    """
    engine = SocialSearchEngine(Dataset.from_arena(arena), EngineConfig(
        algorithm="exact",
        proximity=ProximityConfig(measure="ppr", cache_size=0),
        partitions=1))
    answered = [record for record in records
                if record.ok and record.kind == "query"]
    chosen = random.Random(seed).sample(answered, min(sample, len(answered)))
    mismatches = []
    for record in chosen:
        payload = payloads[record.request_id]
        expected = _answer_of(engine.run(Query(
            seeker=int(payload["seeker"]), tags=tuple(payload["tags"]),
            k=int(payload["k"])), algorithm="exact"))
        if answer(record.body) != expected:
            mismatches.append(f"{record.request_id} {payload}: served "
                              f"{answer(record.body)[:3]}..., reference "
                              f"{expected[:3]}...")
    return mismatches, len(chosen)


def acked_updates(records: Iterable[Record], payloads
                  ) -> "tuple[List[TaggingAction], List[Tuple[int, int, float]]]":
    """Actions and friendships of every acknowledged ``/update``, in ack order."""
    actions: List[TaggingAction] = []
    edges: List[Tuple[int, int, float]] = []
    for record in sorted(records, key=lambda record: record.done):
        if record.ok and record.kind == "update":
            payload = payloads[record.request_id]
            actions.extend(TaggingAction.from_dict(entry)
                           for entry in payload["actions"])
            edges.extend((int(u), int(v), float(w))
                         for u, v, w in payload.get("friendships", []))
    return actions, edges


def recovered_store(directory: Path, base: Dataset,
                    actions: Sequence[TaggingAction],
                    edges: Sequence[Tuple[int, int, float]],
                    probes: Sequence[Query]) -> "tuple[List[str], int]":
    """Reopen a SIGKILLed durable store and check it against the acks.

    Every acknowledged action and friendship must be present, and the
    probe queries must answer exactly like a corpus rebuilt from scratch
    with the same acknowledged updates.  Returns ``(mismatches, lost)``.
    """
    store = DurableStore.open(directory)
    try:
        recovered = store.dataset
        lost = [f"action {a.user_id},{a.item_id},{a.tag}" for a in actions
                if not recovered.tagging.contains(a.user_id, a.item_id, a.tag)]
        # A friendship keeps the strongest tie ever added, so an acked
        # edge is present when its recovered weight is at least the acked.
        lost += [f"friendship {u}-{v} (weight {w})" for u, v, w in edges
                 if not recovered.graph.has_edge(u, v)
                 or recovered.graph.edge_weight(u, v) < w]
        builder = SocialGraphBuilder(base.num_users)
        for u, v, w in base.graph.iter_edges():
            builder.add_edge(u, v, w)
        for u, v, w in edges:
            builder.add_edge(u, v, w)
        rebuilt = Dataset.build(builder.build(),
                                list(base.tagging.actions()) + list(actions),
                                name=base.name)
        config = EngineConfig(algorithm="exact")
        want_engine = SocialSearchEngine(rebuilt, config)
        got_engine = SocialSearchEngine(recovered, config)
        mismatches = [f"lost acknowledged {entry}" for entry in lost]
        for query in probes:
            want = _answer_of(want_engine.run(query))
            got = _answer_of(got_engine.run(query))
            if want != got:
                mismatches.append(f"probe {query.to_dict()}: recovered "
                                  f"{got[:3]}..., rebuilt {want[:3]}...")
        return mismatches, len(lost)
    finally:
        store.close()
