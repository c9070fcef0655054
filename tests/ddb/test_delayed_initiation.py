"""Tests for the DDB delayed-T initiation rule (section 4.3 lifted)."""

from __future__ import annotations

import pytest

from repro.ddb.initiation import DdbDelayedInitiation
from repro.ddb.transaction import Think, acquire
from repro.errors import ConfigurationError

from tests.ddb.helpers import X, cross_deadlock, ring_deadlock, spec, two_site_system


class TestDdbDelayedInitiation:
    def test_negative_t_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            DdbDelayedInitiation(timeout=-1.0)

    def test_short_wait_avoids_computation(self) -> None:
        # T2 waits ~3 time units for T1's commit -- well under T=20, so no
        # probe computation ever starts.
        system = two_site_system(initiation=DdbDelayedInitiation(timeout=20.0))
        system.begin(spec(1, 0, acquire(("r0", X)), Think(2.0)), at=0.0)
        system.begin(spec(2, 0, acquire(("r0", X))), at=0.5)
        system.run_to_quiescence()
        assert all(r.commits == 1 for r in system.transactions.values())
        assert system.counts["ddb.computations.initiated"] == 0
        assert system.counts["ddb.computations.avoided"] >= 1
        assert system.probes_sent == 0

    def test_persistent_deadlock_detected_after_t(self) -> None:
        timeout = 6.0
        system = two_site_system(initiation=DdbDelayedInitiation(timeout=timeout))
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()
        system.assert_completeness()
        # Detection latency is bounded below by T.
        latencies = system.detection_latencies
        assert len(latencies) >= 1
        assert min(latencies) >= timeout

    @pytest.mark.parametrize("n", [3, 5])
    def test_ring_detected_with_delay(self, n: int) -> None:
        system = ring_deadlock(n, initiation=DdbDelayedInitiation(timeout=4.0))
        system.run_to_quiescence()
        assert system.declarations
        system.assert_soundness()
        system.assert_completeness()

    def test_fewer_computations_than_immediate_under_churn(self) -> None:
        def run(initiation=None) -> int:
            system = two_site_system(
                **({"initiation": initiation} if initiation else {})
            )
            # Waves of short-lived contention that always resolves.
            for wave in range(6):
                base = 25.0 * wave
                system.begin(
                    spec(2 * wave + 1, 0, acquire(("r0", X)), Think(2.0)),
                    at=base,
                )
                system.begin(
                    spec(2 * wave + 2, 0, acquire(("r0", X))), at=base + 0.5
                )
            system.run_to_quiescence()
            assert all(r.commits == 1 for r in system.transactions.values())
            return system.counts["ddb.computations.initiated"]

        immediate = run()
        delayed = run(DdbDelayedInitiation(timeout=15.0))
        assert delayed == 0
        assert immediate > 0
