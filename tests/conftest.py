"""Fixtures shared by several test modules."""

import pytest

from realcubic.classify import classify_surface, load_witnesses


@pytest.fixture(scope="session")
def witness_reports():
    """(witness record, report) for each shipped witness, classified once
    per test session."""
    return [(w, classify_surface(w["surface"], w["plane"]))
            for w in load_witnesses()]
