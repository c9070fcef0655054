"""The probe computation of section 3 (algorithm A0/A1/A2).

Each vertex owns a :class:`ProbeEngine` holding the deadlock-detection
state the paper prescribes:

* a per-initiator record of the **latest** computation tag seen (section
  4.3: "if probe computation (i, n) is initiated, all probe computations
  (i, k) with k < n may be ignored ... every vertex need only keep track of
  one, the latest, probe computation initiated by each vertex"), hence the
  per-vertex state is O(N);
* within the tracked computation, whether this vertex has already sent its
  probes (A2 fires only on the *first* meaningful probe of a computation,
  and a vertex sends at most one probe per outgoing edge per computation).

The engine is deliberately ignorant of the transport: the vertex gives it
local knowledge only -- the set of outgoing edges (P3: existence is locally
known, colour is not) and whether an incoming edge from the probe's sender
is black (P3 again).  That keeps the implementation honest: nothing here
could peek at the global graph even by accident.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro._ids import ProbeTag, VertexId
from repro.basic.messages import Probe


@dataclass
class _ComputationRecord:
    """Per-initiator record: the latest tag seen and whether we propagated."""

    sequence: int
    propagated: bool


class ProbeEngine:
    """Probe-computation state machine for one vertex.

    Parameters
    ----------
    vertex:
        The id of the owning vertex.
    send_probe:
        Callback ``(target, probe)`` used to transmit a probe along the
        outgoing edge to ``target``.
    declare_deadlock:
        Callback ``(tag)`` invoked when step A1 fires: this vertex initiated
        computation ``tag`` and received a meaningful probe for it, so it is
        on a black cycle.
    """

    def __init__(
        self,
        vertex: VertexId,
        send_probe: Callable[[VertexId, Probe], None],
        declare_deadlock: Callable[[ProbeTag], None],
    ) -> None:
        self.vertex = vertex
        self._send_probe = send_probe
        self._declare_deadlock = declare_deadlock
        self._records: dict[int, _ComputationRecord] = {}
        self._next_sequence = 1
        #: Tags of computations this vertex initiated that ended in a
        #: deadlock declaration (A1 fired).
        self.declared: list[ProbeTag] = []

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def tracked_computations(self) -> int:
        """Number of computations currently tracked (bounded by the number
        of distinct initiators ever seen -- the O(N) claim of section 4.3)."""
        return len(self._records)

    @property
    def deadlocked(self) -> bool:
        """True iff this vertex has declared itself on a black cycle."""
        return bool(self.declared)

    def latest_sequence(self, initiator: int) -> int | None:
        record = self._records.get(initiator)
        return record.sequence if record is not None else None

    # ------------------------------------------------------------------
    # A0: initiation
    # ------------------------------------------------------------------

    def next_tag(self) -> ProbeTag:
        """The tag the next :meth:`initiate` call will use (for tracing)."""
        return ProbeTag(initiator=int(self.vertex), sequence=self._next_sequence)

    def initiate(self, outgoing: Iterable[VertexId]) -> ProbeTag:
        """Step A0: start a fresh computation, probing all outgoing edges.

        Returns the new computation's tag.  Calling with no outgoing edges
        is legal and produces a computation that can never come back (an
        active vertex is trivially not deadlocked).
        """
        tag = self.next_tag()
        self._next_sequence += 1
        # The initiator's own record: it has "propagated" by definition of
        # A0, and any meaningful probe it receives for this tag triggers A1.
        self._records[tag.initiator] = _ComputationRecord(
            sequence=tag.sequence, propagated=True
        )
        probe = Probe(tag=tag)
        for target in sorted(outgoing):
            self._send_probe(target, probe)
        return tag

    # ------------------------------------------------------------------
    # A1 / A2: probe receipt
    # ------------------------------------------------------------------

    def on_probe(
        self,
        sender: VertexId,
        probe: Probe,
        incoming_edge_black: bool,
        outgoing: Iterable[VertexId],
    ) -> None:
        """Handle a probe delivered along edge ``(sender, self.vertex)``.

        ``incoming_edge_black`` is the local P3 knowledge: does this vertex
        currently hold an unanswered request from ``sender``?  That is
        precisely "edge (sender, me) exists and is black", i.e. the probe is
        *meaningful*.  ``outgoing`` is the current set of outgoing edges
        (P3: locally known), captured atomically because the simulator runs
        this handler to completion.
        """
        if not incoming_edge_black:
            # Not meaningful: the edge has been whitened/deleted (or the
            # probe raced a request under a broken non-FIFO transport).
            # Silently discarded, exactly as the paper prescribes.
            return

        tag = probe.tag
        record = self._records.get(tag.initiator)
        if record is not None and tag.sequence < record.sequence:
            # Stale computation (section 4.3): (i, k) with k < n is ignored.
            return

        if tag.initiator == int(self.vertex):
            # A1 -- but only for the computation we actually initiated (a
            # stale probe of an older own computation was filtered above,
            # and sequences greater than ours cannot exist), and only for
            # the *first* meaningful probe of that computation.
            if (
                record is not None
                and tag.sequence == record.sequence
                and tag not in self.declared
            ):
                self.declared.append(tag)
                self._declare_deadlock(tag)
            return

        if record is None or tag.sequence > record.sequence:
            record = _ComputationRecord(sequence=tag.sequence, propagated=False)
            self._records[tag.initiator] = record

        if record.propagated:
            # A2 already ran for this computation; at most one probe per
            # outgoing edge per computation.
            return

        record.propagated = True
        # Messages are frozen and the tag is unchanged, so the received
        # probe is forwarded as is, like A0's one probe on every edge.
        for target in sorted(outgoing):
            self._send_probe(target, probe)
