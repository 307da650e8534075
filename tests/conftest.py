"""Fixtures shared by the test modules."""

import pytest

from dqip import dam


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
