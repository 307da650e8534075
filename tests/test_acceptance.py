"""The release gate: every acceptance criterion at its stated tolerance.

Each criterion prints one pass/fail line; the same battery backs the CLI's
``verify-suite`` command.
"""

import json

import numpy as np
import pytest

from dqip import acceptance, qcore


@pytest.fixture(scope="session")
def battery():
    """One run of the whole battery, shared by the per-criterion and total tests."""
    results, total = acceptance.run_all()
    return {r.criterion: r for r in results}, total


@pytest.mark.parametrize("criterion", acceptance.CRITERIA, ids=lambda c: c.ident)
def test_criterion(criterion, battery):
    result = battery[0][criterion.ident]
    print(result.row())
    for line in result.details:
        print(f"    {line}")
    assert result.elapsed_seconds <= criterion.budget_seconds
    if result.comparison == "<=":
        assert result.measured <= result.bound, result.details
    else:
        assert result.measured >= result.bound, result.details


def test_battery_total_runtime_under_budget(battery):
    results, total = battery
    assert all(r.passed for r in results.values())
    assert total <= 15 * 60


def test_results_document_is_plain_json():
    # numpy scalars from a criterion body must not leak into the document.
    stub = acceptance.Criterion("stub", "numpy-valued body", 1, lambda: (np.float64(0.5), np.float64(1.0), "<=", []))
    result = stub.evaluate()
    assert type(result.passed) is bool
    document = json.loads(json.dumps(acceptance.results_document([result], 0.0)))
    assert document["criteria"][0]["passed"] is True


def test_mutated_rotation_breaks_perfect_completeness(monkeypatch):
    # Injecting a sign error into the acceptance rotation must surface in the
    # perfect-completeness criterion: the honest amplitude no longer cancels.
    original = qcore.acceptance_rotation

    def broken(c):
        sc, ss = np.sqrt(c), np.sqrt(1.0 - c)
        return np.array([[sc, -ss], [ss, sc]], dtype=np.complex128)

    monkeypatch.setattr(qcore, "acceptance_rotation", broken)
    criterion = next(c for c in acceptance.CRITERIA if c.ident == "perfect-completeness")
    result = criterion.evaluate()
    monkeypatch.setattr(qcore, "acceptance_rotation", original)
    assert not result.passed
