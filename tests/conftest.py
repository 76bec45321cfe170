"""Fixtures shared by the test modules."""

import pytest

from picardlab import curves


@pytest.fixture
def jet_bounds(monkeypatch):
    """The jet bounds of every classify_ak call, in call order."""
    bounds = []
    original = curves.classify_ak

    def recording(f, jet_bound):
        bounds.append(jet_bound)
        return original(f, jet_bound)

    monkeypatch.setattr(curves, "classify_ak", recording)
    return bounds


@pytest.fixture
def fresh_seed_proof():
    """The process's seed proof, cleared before and after the test, so a
    test that breaks the proof for a moment leaves no broken proof behind."""
    curves.seed_proof.cache_clear()
    yield curves.seed_proof
    curves.seed_proof.cache_clear()
