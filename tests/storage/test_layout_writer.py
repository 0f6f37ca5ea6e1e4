"""The arena layout writer against the dict index builders.

Every arena build and compaction lays its index sections out through
:func:`repro.storage.arena.index_sections`.  These tests check that writer
against an independent reference: :meth:`Dataset.build` re-derives the
dict-backed indexes from the same graph and action log, and every index of
the rebuilt-and-reopened arena must read the same.  A second group pins
that re-serialising an arena-backed dataset never replays it into Python
dicts.
"""

import numpy as np
import pytest

from repro.storage import Dataset, DatasetUpdater, DurableStore, TaggingAction
from repro.storage.arena import build_arena
from repro.workload.datasets import scaled_dataset

CASES = ("pending-delta", "compacted", "new-tag", "item-past-num-items")


@pytest.fixture(scope="module")
def base_arena(tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "base.arena"
    return build_arena(scaled_dataset(120, seed=5), path)


def _updates(dataset, case):
    """Two update batches for ``case``; the second is left pending."""
    tags = dataset.tags()
    first = [TaggingAction(user_id=user, item_id=(user * 13) % 40,
                           tag=tags[user % len(tags)], timestamp=50_000 + user)
             for user in range(0, dataset.num_users, 4)]
    second = [TaggingAction(user_id=user, item_id=(user * 5) % 30,
                            tag=tags[(user + 1) % len(tags)], timestamp=60_000)
              for user in range(1, dataset.num_users, 9)]
    if case == "new-tag":
        first.append(TaggingAction(user_id=3, item_id=2, tag="zz-fresh"))
        second.append(TaggingAction(user_id=4, item_id=2, tag="aa-fresh"))
        second.append(TaggingAction(user_id=7, item_id=2, tag="zz-fresh"))
    if case == "item-past-num-items":
        far = dataset.num_items + 57
        first.append(TaggingAction(user_id=2, item_id=far, tag=tags[0]))
        second.append(TaggingAction(user_id=6, item_id=far + 1, tag=tags[0]))
    return first, second


def _live(base_arena, case):
    """An arena-backed dataset updated per ``case`` plus its full action log."""
    dataset = Dataset.from_arena(base_arena)
    log = list(Dataset.from_arena(base_arena).tagging.actions())
    updater = DatasetUpdater(dataset)
    first, second = _updates(dataset, case)
    updater.add_actions(first)
    if case != "pending-delta":
        assert updater.compact() > 0
    updater.add_actions(second)
    if case == "compacted":
        updater.compact()
    return dataset, log + first + second


def _assert_indexes_match(dataset, reference):
    tags = reference.tags()
    assert dataset.tags() == tags
    assert len(dataset.tagging) == len(reference.tagging)
    for tag in tags:
        got = dataset.inverted_index.arrays(tag)
        want = reference.inverted_index.arrays(tag)
        assert np.array_equal(got.item_ids, want.item_ids), tag
        assert np.array_equal(got.frequencies, want.frequencies), tag
        assert dataset.inverted_index.max_frequency(tag) \
            == reference.inverted_index.max_frequency(tag)
        got_bundle = dataset.endorser_index.for_tag(tag)
        want_bundle = reference.endorser_index.for_tag(tag)
        for field in ("item_ids", "frequencies", "offsets", "taggers"):
            assert np.array_equal(getattr(got_bundle, field),
                                  getattr(want_bundle, field)), (tag, field)
        for item_id in want_bundle.item_ids.tolist():
            assert dataset.inverted_index.frequency(item_id, tag) \
                == reference.inverted_index.frequency(item_id, tag)
            assert dataset.tagging.tag_frequency(item_id, tag) \
                == reference.tagging.tag_frequency(item_id, tag)
        for user in range(reference.num_users):
            assert dataset.social_index.items_for(user, tag) \
                == reference.social_index.items_for(user, tag), (user, tag)
    for action in reference.tagging.actions():
        assert dataset.tagging.contains(action.user_id, action.item_id,
                                        action.tag)
    assert not dataset.tagging.contains(0, 10 ** 9, tags[0])


@pytest.mark.parametrize("case", CASES)
def test_rebuilt_arena_matches_dict_builders(base_arena, tmp_path, case):
    dataset, log = _live(base_arena, case)
    reference = Dataset.build(dataset.graph, log, name=dataset.name)
    path = build_arena(dataset, tmp_path / "rebuilt.arena")
    _assert_indexes_match(Dataset.from_arena(path), reference)


@pytest.mark.parametrize("case", CASES[1:])
def test_compacted_social_index_matches_dict_social_index(base_arena, case):
    dataset, log = _live(base_arena, case)
    DatasetUpdater(dataset).compact()
    reference = Dataset.build(dataset.graph, log, name=dataset.name)
    social = dataset.social_index
    assert social.overlay_size == 0
    for tag in reference.tags():
        for user in range(reference.num_users):
            assert social.items_for(user, tag) \
                == reference.social_index.items_for(user, tag), (user, tag)
    assert social.num_entries() == reference.social_index.num_entries()
    assert social.users() == reference.social_index.users()
    for user in reference.social_index.users():
        assert social.profile(user) == reference.social_index.profile(user)


def _unmaterialised(dataset):
    return (not dataset.tagging._materialised
            and not dataset.social_index._profiles_built)


def test_durable_lifecycle_never_materialises(base_arena, tmp_path):
    dataset = Dataset.from_arena(base_arena)
    store = DurableStore.initialise(dataset, tmp_path / "durable")
    try:
        assert _unmaterialised(dataset)
        first, second = _updates(store.dataset, "new-tag")
        store.updater.add_actions(first)
        assert store.checkpoint()["published"]
        store.updater.add_actions(second)
        assert store.updater.compact() > 0
        assert _unmaterialised(store.dataset)
    finally:
        store.close()
