"""Scope of the byte-identity rule: every module whose arrays become arena
bytes is checked, not only the writer modules themselves."""

import pytest

from repro.analysis import get_rule, lint_source

FEEDERS = ("repro/storage/tagging.py", "repro/workload/tagging_model.py",
           "repro/graph/graph.py", "repro/proximity/materialized.py")


@pytest.mark.parametrize("module", FEEDERS + (
    "repro/storage/arena.py", "repro/storage/arena_stream.py",
    "repro/proximity/landmarks.py"))
def test_arena_feeders_are_in_scope(module):
    assert get_rule("byte-identity").applies_to(module)


def test_unrelated_modules_stay_out_of_scope():
    rule = get_rule("byte-identity")
    assert not rule.applies_to("repro/storage/updates.py")
    assert not rule.applies_to("repro/core/engine.py")


def test_column_accessor_without_dtype_is_flagged():
    source = ("import numpy as np\n"
              "def columns(actions):\n"
              "    return np.array([a.user_id for a in actions])\n")
    findings = lint_source(source, "repro/storage/tagging.py",
                           rules=[get_rule("byte-identity")])
    assert [finding.rule for finding in findings] == ["byte-identity"]
