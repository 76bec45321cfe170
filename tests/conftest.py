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
