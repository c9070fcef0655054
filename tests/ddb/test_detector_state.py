"""Tests for DDB detector state bookkeeping (pruning, labelled sets)."""

from __future__ import annotations

from repro._ids import ProbeTag, ProcessId, SiteId, TransactionId
from repro.ddb.system import DdbSystem
from repro.ddb.transaction import Think, acquire

from tests.ddb.helpers import X, cross_deadlock, spec, two_site_system


def pid(tid: int, site: int) -> ProcessId:
    return ProcessId(transaction=TransactionId(tid), site=SiteId(site))


class TestPruning:
    def test_initiator_state_pruned_after_commit(self) -> None:
        # Plain contention: computations are initiated for waits that
        # resolve; the initiator-side records must be reclaimed.
        system = two_site_system()
        system.begin(spec(1, 0, acquire(("r1", X)), Think(3.0)), at=0.0)
        system.begin(spec(2, 1, acquire(("r1", X))), at=0.5)
        system.run_to_quiescence()
        assert system.declarations == []
        for controller in system.controllers.values():
            for tag, computation in controller.detector._computations.items():
                assert computation.about is None, (
                    f"unpruned initiator record {tag} at C{controller.site}"
                )

    def test_prune_drops_exactly_its_process_initiator_records(self) -> None:
        from repro.ddb.detector import DdbComputation

        system = two_site_system()
        detector = system.controller(0).detector
        p, q = pid(1, 0), pid(2, 0)
        about_p = [detector.initiate(p) for _ in range(3)]
        about_q = [detector.initiate(q) for _ in range(2)]
        forwarded = [ProbeTag(initiator=1, sequence=i + 1) for i in range(4)]
        for tag in forwarded:
            detector._computations[tag] = DdbComputation(tag=tag, about=None)
        assert all(detector._computations[tag].about == p for tag in about_p)

        detector.prune(p)
        assert list(detector._computations) == about_q + forwarded
        detector.prune(p)  # nothing left about p: a no-op
        assert detector.tracked_computations == len(about_q) + len(forwarded)
        detector.prune(q)
        assert list(detector._computations) == forwarded
        # p waits again: its new computation is pruned the same way
        again = detector.initiate(p)
        assert again not in about_p
        detector.prune(p)
        assert list(detector._computations) == forwarded

    def test_prune_forwarded_caps_records(self) -> None:
        from repro.ddb.detector import DdbComputation

        system = two_site_system()
        detector = system.controller(0).detector
        for i in range(50):
            tag = ProbeTag(initiator=1, sequence=i + 1)
            detector._computations[tag] = DdbComputation(tag=tag, about=None)
        detector.prune_forwarded(max_records=10)
        assert detector.tracked_computations == 10

    def test_prune_forwarded_keeps_initiator_records(self) -> None:
        from repro.ddb.detector import DdbComputation

        system = two_site_system()
        detector = system.controller(0).detector
        own = ProbeTag(initiator=0, sequence=1)
        detector._computations[own] = DdbComputation(tag=own, about=pid(9, 0))
        for i in range(20):
            tag = ProbeTag(initiator=1, sequence=i + 1)
            detector._computations[tag] = DdbComputation(tag=tag, about=None)
        detector.prune_forwarded(max_records=5)
        assert own in detector._computations


class TestLabelledSets:
    def test_labelled_for_contains_cycle_transactions(self) -> None:
        system = two_site_system()
        cross_deadlock(system)
        system.run_to_quiescence()
        assert system.declarations
        declaration = system.declarations[0]
        controller = system.controllers[declaration.site]
        labelled = controller.detector.labelled_for(declaration.tag)
        transactions = {p.transaction for p in labelled}
        assert transactions == {TransactionId(1), TransactionId(2)}

    def test_labelled_for_unknown_tag_is_empty(self) -> None:
        system = two_site_system()
        assert system.controller(0).detector.labelled_for(
            ProbeTag(initiator=9, sequence=9)
        ) == set()
