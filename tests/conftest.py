"""Fixtures shared by the test modules."""

import pytest

from dqip import dam, qcore


@pytest.fixture
def brute_force_calls(monkeypatch):
    """The protocol name of each ``dam.brute_force_value`` call the test makes.

    The catalog memo is emptied before the test and after it, so the count
    starts cold whatever ran before.
    """
    calls = []
    original = dam.brute_force_value

    def counting(protocol, instance):
        calls.append(protocol.name)
        return original(protocol, instance)

    dam.catalog_entry.cache_clear()
    monkeypatch.setattr(dam, "brute_force_value", counting)
    yield calls
    dam.catalog_entry.cache_clear()


@pytest.fixture
def classified(monkeypatch):
    """The ``(matrix, targets)`` of each ``qcore.StructuredOp`` the test builds, in order.

    The process-wide table of read-only matrices' ops is emptied for the
    test and put back after it, so the count starts cold whatever ran
    before.  Each matrix is held, so no id is reused.
    """
    calls = []
    init = qcore.StructuredOp.__init__

    def recording(self, matrix, targets):
        calls.append((matrix, tuple(targets)))
        init(self, matrix, targets)

    monkeypatch.setattr(qcore.StructuredOp, "_shared", {})
    monkeypatch.setattr(qcore.StructuredOp, "__init__", recording)
    return calls
