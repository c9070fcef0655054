"""The conformance suite (``test_run_conformance.py``) on the asyncio runtime."""

from __future__ import annotations

import pytest

from tests.transport.test_run_conformance import AdaptivePolicy, EveryVariant, run_on


class TestEveryVariantLive(EveryVariant):
    transport = "live"


class TestAdaptivePolicyLive(AdaptivePolicy):
    transport = "live"


@pytest.mark.parametrize("family", ("er", "ba"))
def test_or_model_runs_the_graph_ensembles_live(family: str) -> None:
    """Cross-backend half of the ensembles-on-OR capability: the same
    family names that drive the basic model resolve and run on the OR
    model's live runtime (the sim half lives in
    tests/workloads/test_families.py)."""
    report = run_on("live", "ormodel", family, seed=1)
    assert report.sound
    assert report.outcome.complete
    assert report.ok
