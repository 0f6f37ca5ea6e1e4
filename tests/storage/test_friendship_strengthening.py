"""Re-adding a friendship with a larger weight is a real graph change.

The graph builder keeps the maximum weight of parallel edges, so a stronger
re-add changes the live graph.  It must therefore be counted, logged to the
WAL before acknowledgement, reach the update observers, and survive a
restart — exactly like a new edge.
"""

from repro.storage import DatasetUpdater, DurableStore
from repro.storage.wal import scan_wal
from repro.workload.datasets import tiny_dataset


def _weak_edge(graph):
    return next((u, v, w) for u, v, w in graph.iter_edges() if w < 1.0)


def test_strengthened_edge_is_logged_notified_and_recovered(tmp_path):
    directory = tmp_path / "durable"
    store = DurableStore.initialise(tiny_dataset(), directory)
    u, v, weight = _weak_edge(store.dataset.graph)
    seen = []
    store.updater.subscribe(seen.append)
    summary = store.updater.add_friendships([(u, v, 1.0)])
    assert summary.edges_added == 1
    assert summary.changed and summary.graph_rebuilt
    assert seen == [summary]
    assert store.dataset.graph.edge_weight(u, v) == 1.0
    records = scan_wal(store.wal.path).records
    assert [record.kind for record in records] == ["friendships"]
    store.close()

    recovered = DurableStore.open(directory)
    try:
        assert recovered.recovery.edges_replayed == 1
        assert recovered.dataset.graph.edge_weight(u, v) == 1.0
    finally:
        recovered.close()


def test_weaker_or_equal_re_add_changes_nothing():
    dataset = tiny_dataset()
    u, v, weight = _weak_edge(dataset.graph)
    graph = dataset.graph
    updater = DatasetUpdater(dataset)
    seen = []
    updater.subscribe(seen.append)
    summary = updater.add_friendships([(u, v, weight), (v, u, weight / 2)])
    assert summary.edges_added == 0 and not summary.changed
    assert seen == []
    # No edge changed, so the CSR graph is not rebuilt.
    assert dataset.graph is graph


def test_batch_counts_each_changed_edge_once():
    dataset = tiny_dataset()
    u, v, weight = _weak_edge(dataset.graph)
    summary = DatasetUpdater(dataset).add_friendships(
        [(u, v, min(1.0, weight + 0.01)), (v, u, 1.0)])
    assert summary.edges_added == 1
    assert dataset.graph.edge_weight(u, v) == 1.0
