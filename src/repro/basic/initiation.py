"""Basic-model adapters onto the scheduling seam (section 4).

The paper decouples *what* a probe computation does (section 3) from
*when* one is started (section 4.2/4.3).  The "when" half lives in
:mod:`repro.core.scheduling` -- transport-neutral policies shared with
the DDB and OR models -- and this module is the thin model adapter: it
translates the basic model's edge lifecycle (``on_edges_added`` /
``on_edge_removed``) into the seam's wait vocabulary and exposes one
vertex as an :class:`~repro.core.scheduling.InitiationSite`.

The historical class names remain the construction API:

* :class:`ImmediateInitiation` -- section 4.2's rule
  (:class:`~repro.core.scheduling.ImmediatePolicy`): a vertex initiates
  a probe computation whenever an outgoing edge is added.
* :class:`DelayedInitiation` -- section 4.3's optimisation
  (:class:`~repro.core.scheduling.DelayedPolicy`): initiate only if an
  outgoing edge has existed *continuously* for ``T`` time units;
  experiment E5 sweeps this parameter and E10 closes the loop.
* :class:`ManualInitiation` -- no automatic initiation; scenario tests
  call :meth:`VertexProcess.initiate_probe_computation` directly.

Registry-driven callers (sweep cells, ``--policy`` flags) resolve any
registered policy -- including ``adaptive`` -- via
:func:`from_policy_spec`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING

from repro._ids import VertexId
from repro.core import scheduling
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.basic.vertex import VertexProcess
    from repro.core.transport import NodeContext


class InitiationPolicy:
    """Interface: notified of edge additions/removals at a vertex."""

    def on_edges_added(self, vertex: "VertexProcess", targets: Iterable[VertexId]) -> None:
        """Called after ``vertex`` created grey edges to ``targets``."""
        raise NotImplementedError

    def on_edge_removed(self, vertex: "VertexProcess", target: VertexId) -> None:
        """Called after the edge ``(vertex, target)`` was deleted (G4)."""
        raise NotImplementedError


class _VertexSite:
    """One basic vertex, in the seam's site vocabulary.

    Subjects are the wait *targets*: ``(vertex_id, target)`` identifies
    one outgoing edge, and initiating "about" any subject starts one
    probe computation at the vertex (A0 probes all outgoing edges).
    """

    __slots__ = ("vertex",)

    def __init__(self, vertex: "VertexProcess") -> None:
        self.vertex = vertex

    @property
    def ctx(self) -> "NodeContext":
        return self.vertex.ctx

    @property
    def site_key(self) -> Hashable:
        return self.vertex.vertex_id

    def initiate(self, subject: Hashable) -> None:
        self.vertex.initiate_probe_computation()

    def is_waiting(self, subject: Hashable) -> bool:
        return subject in self.vertex.pending_out

    def timer_name(self, subject: Hashable) -> str:
        return f"T-timer {(self.vertex.vertex_id, subject)}"

    def note_avoided(self) -> None:
        self.vertex.ctx.count("basic.computations.avoided")

    def scan(self, optimized: bool) -> None:
        raise ConfigurationError(
            "the basic model has no controller scans; the 'periodic' policy "
            "drives DDB controllers only"
        )

    def scan_timer_name(self) -> str:
        raise ConfigurationError(
            "the basic model has no controller scans; the 'periodic' policy "
            "drives DDB controllers only"
        )


class PolicyInitiation(InitiationPolicy):
    """Drive basic vertices from a core scheduling policy instance."""

    def __init__(self, policy: scheduling.InitiationPolicy) -> None:
        self.policy = policy

    def on_edges_added(self, vertex: "VertexProcess", targets: Iterable[VertexId]) -> None:
        self.policy.on_waits_started(_VertexSite(vertex), tuple(targets))

    def on_edge_removed(self, vertex: "VertexProcess", target: VertexId) -> None:
        self.policy.on_wait_resolved(_VertexSite(vertex), target)


class ManualInitiation(PolicyInitiation):
    """Never initiates; for scripted tests and exhaustive exploration."""

    def __init__(self) -> None:
        super().__init__(scheduling.ManualPolicy())


class ImmediateInitiation(PolicyInitiation):
    """Section 4.2: initiate whenever an outgoing edge is added.

    A batch of simultaneously created edges (one AND-request for several
    resources) triggers a single computation -- A0 probes *all* outgoing
    edges anyway, so per-edge initiation within one batch would only clone
    identical computations.
    """

    def __init__(self) -> None:
        super().__init__(scheduling.ImmediatePolicy())


class DelayedInitiation(PolicyInitiation):
    """Section 4.3: initiate after an edge survives for ``T`` time units.

    One timer per outgoing edge; deleting the edge cancels its timer.  When
    a timer fires and the edge still exists, a probe computation starts.
    The basic tradeoff (quoted from the paper): "if T is too small too many
    probe computations are initiated and if T is too large the time taken
    to detect deadlock (which is at least T) is too large."
    """

    def __init__(self, timeout: float) -> None:
        super().__init__(scheduling.DelayedPolicy(timeout))

    @property
    def timeout(self) -> float:
        delayed = self.policy
        assert isinstance(delayed, scheduling.DelayedPolicy)
        return delayed.timeout


def from_policy_spec(spec: scheduling.PolicySpec) -> PolicyInitiation:
    """Resolve a registered policy spec into a basic-model initiation."""
    return PolicyInitiation(scheduling.build_policy(spec, model="basic"))
