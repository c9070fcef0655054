"""The DDB probe computation (section 6.6) with the 6.7 optimisation.

Controllers -- not processes -- exchange probes.  Within a controller,
probe propagation is replaced by *labelling*: receiving a meaningful probe
directed at local process ``p`` labels ``p`` and everything reachable from
``p`` along intra-controller edges; probes are then sent along every
inter-controller edge leaving a labelled process (at most once per edge
per computation).

Interpretation note.  We implement the controller steps as the exact
basic-model algorithm applied to process-level vertices, which resolves
two ambiguities in the terse A0/A1 text:

* the *about*-process acts as the basic model's initiating vertex: its A0
  sends probes along **all** its outgoing edges (labelling its intra
  successors, sending controller probes along its own inter edges), but it
  never *propagates* -- a label reaching it IS the A1 "meaningful probe
  received" condition and triggers the declaration (at A0 time for a
  purely local cycle, later for a distributed one);
* every controller -- including the initiating one -- forwards probes for
  the labelled processes other than the about-process (the basic model's
  A2 applies per process, not per controller), so dark cycles that pass
  through the initiating *site* twice still circulate.  The per-edge
  send-once rule keeps termination.

Per-computation state is kept per *tag* rather than "latest per initiator"
because section 6.7 explicitly has one controller run Q concurrent
computations; the basic-model latest-only compaction (section 4.3) would
cancel a controller's own concurrent computations.  State is reclaimed via
:meth:`DdbDetector.prune` once a computation's about-process stops waiting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro._ids import ProbeTag, ProcessId
from repro.ddb.messages import DdbProbe, EdgeRef
from repro.sim import categories

if TYPE_CHECKING:  # pragma: no cover
    from repro.ddb.controller import Controller


@dataclass
class DdbComputation:
    """State of one probe computation at one controller."""

    tag: ProbeTag
    #: the process this computation is about (set only at the initiator)
    about: ProcessId | None
    labelled: set[ProcessId] = field(default_factory=set)
    probes_sent: set[EdgeRef] = field(default_factory=set)
    declared: bool = False


class DdbDetector:
    """Per-controller probe-computation engine."""

    def __init__(self, controller: "Controller") -> None:
        self._controller = controller
        self._computations: dict[ProbeTag, DdbComputation] = {}
        self._next_sequence = 1

    @property
    def tracked_computations(self) -> int:
        return len(self._computations)

    def labelled_for(self, tag: ProbeTag) -> set[ProcessId]:
        """The locally labelled processes of computation ``tag`` -- the
        controller's legitimate local knowledge of the cycle's membership,
        used by victim-selection policies."""
        computation = self._computations.get(tag)
        if computation is None:
            return set()
        result = set(computation.labelled)
        if computation.about is not None:
            result.add(computation.about)
        return result

    # ------------------------------------------------------------------
    # A0: initiation
    # ------------------------------------------------------------------

    def initiate(self, about: ProcessId) -> ProbeTag:
        """Step A0: determine whether ``about`` is on a dark cycle.

        In basic-model terms, ``about`` is the initiating vertex: it sends
        probes along *all* its outgoing edges -- intra edges become labels
        on its intra-successors (whose A2 propagation is the transitive
        closure), inter edges become controller probes.  ``about`` itself
        is *not* labelled: a label on ``about`` means "the initiator
        received a meaningful probe", which is exactly the A1 declaration
        condition -- immediately (a purely local intra-controller cycle) or
        later when a probe returns (:meth:`on_probe`).
        """
        controller = self._controller
        tag = ProbeTag(initiator=int(controller.site), sequence=self._next_sequence)
        self._next_sequence += 1
        computation = DdbComputation(tag=tag, about=about)
        self._computations[tag] = computation
        controller.ctx.count("ddb.computations.initiated")
        controller.ctx.trace(
            categories.DDB_COMPUTATION_INITIATED, site=controller.site, about=about, tag=tag
        )

        computation.labelled = controller.intra_closure(
            controller.intra_successors(about), stop=about
        )
        if about in computation.labelled:
            # Black cycle of intra-controller edges: declare locally (A0).
            self._declare(computation)
            return tag
        # A0 sends probes along the initiator's own inter edges as well as
        # those of the labelled (virtually probed) processes.
        self._forward(computation, include=about)
        return tag

    # ------------------------------------------------------------------
    # A1 / A2: probe receipt
    # ------------------------------------------------------------------

    def on_probe(self, probe: DdbProbe) -> None:
        """Handle a probe delivered along ``probe.edge``.

        Meaningfulness (section 6.5): the edge must exist and be black at
        receipt, i.e. this controller holds the corresponding remote
        request (matching serial) and has not granted all its items.
        """
        controller = self._controller
        meaningful = controller.inter_edge_black(probe.edge)
        controller.ctx.trace(
            categories.DDB_PROBE_RECEIVED,
            site=controller.site,
            tag=probe.tag,
            edge=probe.edge,
            meaningful=meaningful,
        )
        if not meaningful:
            return
        computation = self._computations.get(probe.tag)
        if computation is None:
            computation = DdbComputation(tag=probe.tag, about=None)
            self._computations[probe.tag] = computation

        target = probe.edge.target
        newly = (
            controller.intra_closure({target}, stop=computation.about)
            - computation.labelled
        )
        if not newly:
            return
        computation.labelled |= newly
        if (
            computation.about is not None
            and computation.about in computation.labelled
            and not computation.declared
        ):
            # A1: a meaningful probe (real along the arriving inter edge,
            # virtual along the intra path to ``about``) reached the
            # initiator process.
            self._declare(computation)
        self._forward(computation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _forward(
        self, computation: DdbComputation, include: ProcessId | None = None
    ) -> None:
        """Send probes along inter edges from labelled processes, at most
        once per edge per computation.

        The initiating process never propagates (A1), so it is excluded
        from the sweep -- except during A0 itself, where the initiator
        sends along its own outgoing edges (passed via ``include``).
        """
        controller = self._controller
        sources = set(computation.labelled)
        sources.discard(computation.about)  # type: ignore[arg-type]
        if include is not None:
            sources.add(include)
        for process in sorted(sources):
            for edge in controller.outgoing_inter_edges(process):
                if edge in computation.probes_sent:
                    continue
                computation.probes_sent.add(edge)
                controller.send_probe(edge.target.site, DdbProbe(computation.tag, edge))

    def _declare(self, computation: DdbComputation) -> None:
        computation.declared = True
        assert computation.about is not None
        self._controller.declare_deadlock(computation.about, computation.tag)

    def prune(self, about: ProcessId) -> None:
        """Drop initiator-side state for computations about a process that
        stopped waiting (committed, was granted, or aborted).

        This bounds detector memory in long-running workloads; without it a
        controller would accumulate one record per computation it ever
        initiated.  Forwarded (non-initiator) state is pruned lazily by
        :meth:`prune_forwarded`.
        """
        stale = [
            tag
            for tag, computation in self._computations.items()
            if computation.about == about
        ]
        for tag in stale:
            del self._computations[tag]

    def prune_forwarded(self, max_records: int = 10_000) -> None:
        """Drop the oldest forwarded-computation records beyond a cap."""
        if len(self._computations) <= max_records:
            return
        forwarded = [
            tag for tag, c in self._computations.items() if c.about is None
        ]
        for tag in forwarded[: len(self._computations) - max_records]:
            del self._computations[tag]
