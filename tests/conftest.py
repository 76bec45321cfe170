"""Fixtures shared by the test modules."""

import pytest

from picardlab import constructions, curves


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


@pytest.fixture
def fresh_family_proofs():
    """The process's family proofs and member frames, cleared before and
    after the test, so a test that patches a rule proves every class afresh
    and leaves no proof of the patched rule behind."""
    constructions.family_proof.cache_clear()
    constructions._frame.cache_clear()
    yield constructions.family_proof
    constructions.family_proof.cache_clear()
    constructions._frame.cache_clear()
