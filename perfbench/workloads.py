"""The shared corpus and the three request streams.

The corpus is the partitioned suite's community-structured tagging site
(seed 23) at 1000 users: dense, community-correlated vocabularies, so item
shards carry prunable bounds.  It is generated through the library on every
run from the fixed ``CORPUS_SEED``; the run's ``--seed`` draws the requests
(query pool, Zipf draws, distinct queries, update batches).  With the
corpus drawn from ``--seed`` as well, the read-write medians of five seeds
spread by 28-45% (quartile distance over median), more than any bound the
benchmark can hold.  The server only ever sees the arena written from the
corpus, its ``serve`` flags and the requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from loadgen import Request
from repro.config import DatasetConfig, ProximityConfig
from repro.proximity import MaterializedProximity, create_proximity
from repro.storage.arena import build_arena
from repro.storage.dataset import Dataset
from repro.workload.datasets import build_dataset
from repro.workload.sampler import dataset_workload

CORPUS_SEED = 23
K = 10
#: Distinct queries the Zipf traffic draws from; far below the result
#: cache's 1024 entries, so the pool fits it.
POOL_SIZE = 128
ZIPF_S = 1.1
#: An ``/update`` batch tags one random item with each of the corpus's
#: ``HOT_TAGS`` most popular tags, so nearly every cached Zipf answer is
#: invalidated by it; every ``FRIENDSHIP_EVERY``-th batch also adds one
#: friendship.  Fixed positions keep the mix the same in every run.
HOT_TAGS = 8
FRIENDSHIP_EVERY = 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its ``serve`` flags, offered rate and request mix."""

    name: str
    #: ``repro serve`` flags besides ``--arena`` (and ``--durable-dir``).
    flags: Tuple[str, ...]
    #: Offered rate of the open-loop latency phase, requests per second.
    rate: float
    #: Every ``update_every``-th request is an ``/update`` batch (0: none);
    #: a fixed position keeps the update count, and so the number of
    #: durable checkpoints, the same in every run.
    update_every: int = 0
    #: Whether every query is a distinct one (else Zipf draws from a pool).
    distinct: bool = False
    durable: bool = False

    @property
    def shards(self) -> bool:
        """Whether the arena also stores the materialized PPR proximity
        shards a ``--materialize`` server attaches."""
        return "--materialize" in self.flags


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("zipf-hot", flags=("--algorithm", "exact"), rate=20.0),
        Workload("long-tail",
                 flags=("--materialize", "--proximity", "ppr",
                        "--partitions", "4", "--algorithm", "exact"),
                 rate=20.0, distinct=True),
        Workload("read-write",
                 flags=("--algorithm", "exact", "--wal-fsync", "always",
                        "--compact-threshold", "300"),
                 rate=20.0, update_every=5, durable=True),
    )
}


def build_corpus() -> Dataset:
    """The in-memory corpus: 1000 users, 2000 items, 25 tags, ~46k actions."""
    return build_dataset(DatasetConfig(
        name="perfbench", num_users=1000, num_items=2000, num_tags=25,
        num_actions=95_000, graph_model="community", avg_degree=8.0,
        homophily=0.85, tag_locality=0.95, seed=CORPUS_SEED))


def write_arena(dataset: Dataset, path: Path, shards: bool) -> Path:
    """Serialise the corpus; ``shards`` adds materialized PPR rows."""
    proximity = None
    if shards:
        measure = create_proximity("ppr", dataset.graph,
                                   ProximityConfig(measure="ppr"))
        proximity = MaterializedProximity(measure)
        proximity.build()
    return build_arena(dataset, path, proximity=proximity)


def query_request(seeker: int, tags: Sequence[str]) -> Request:
    return Request("query", "/query",
                   {"seeker": int(seeker), "tags": list(tags), "k": K})


def _distinct_queries(dataset: Dataset, count: int, seed: int) -> List[Request]:
    seen = set()
    out: List[Request] = []
    drawn = count
    while len(out) < count:
        drawn *= 2
        for query in dataset_workload(dataset, num_queries=drawn, k=K,
                                      seed=seed):
            key = (query.seeker, tuple(sorted(query.tags)))
            if key not in seen:
                seen.add(key)
                out.append(query_request(query.seeker, query.tags))
                if len(out) == count:
                    break
    return out


def hot_tags(dataset: Dataset) -> List[str]:
    """The corpus's most popular tags (what most Zipf queries ask for)."""
    tag_table, _, popularity = dataset.tagging.action_histograms(
        dataset.num_users)
    order = np.argsort(-np.asarray(popularity), kind="stable")
    return [tag_table[int(index)] for index in order[:HOT_TAGS]]


class Traffic:
    """Request streams of one workload and seed.

    Successive calls to :meth:`take` return fresh, non-overlapping slices of
    the stream, so a distinct-query workload never repeats a query across
    phases.
    """

    def __init__(self, workload: Workload, dataset: Dataset, seed: int,
                 total: int) -> None:
        self._rng = np.random.default_rng(seed + 1)
        self._dataset = dataset
        self._workload = workload
        self._hot = hot_tags(dataset)
        if workload.distinct:
            self._queries = _distinct_queries(dataset, total, seed)
        else:
            self.pool = _distinct_queries(dataset, POOL_SIZE, seed)
            weights = 1.0 / np.arange(1, POOL_SIZE + 1) ** ZIPF_S
            self._weights = weights / weights.sum()
        self._taken = 0
        self._batches = 0

    def _update(self) -> Request:
        rng = self._rng
        dataset = self._dataset
        actions = [{"user_id": int(rng.integers(dataset.num_users)),
                    "item_id": int(rng.integers(dataset.num_items)),
                    "tag": tag} for tag in self._hot]
        payload: Dict[str, object] = {"actions": actions}
        self._batches += 1
        if self._batches % FRIENDSHIP_EVERY == 0:
            u, v = (int(x) for x in rng.choice(dataset.num_users, 2,
                                               replace=False))
            payload["friendships"] = [[u, v, 0.5]]
        return Request("update", "/update", payload)

    def updates(self, count: int) -> List[Request]:
        """``count`` ``/update`` batches (the update probe of read-only mixes)."""
        return [self._update() for _ in range(count)]

    def take(self, count: int) -> List[Request]:
        if self._workload.distinct:
            out = self._queries[self._taken:self._taken + count]
            self._taken += count
            return out
        out = []
        every = self._workload.update_every
        for _ in range(count):
            self._taken += 1
            if every and self._taken % every == 0:
                out.append(self._update())
            else:
                out.append(self.pool[int(self._rng.choice(
                    POOL_SIZE, p=self._weights))])
        return out
