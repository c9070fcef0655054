"""OR-model adapter onto the scheduling seam (section 7).

Historically the OR model hard-wired the section 4.2 rule
(``auto_initiate``: run a query computation the moment a vertex blocks).
This module opens that knob to the shared policy registry
(:mod:`repro.core.scheduling`): an :class:`OrPolicyInitiation` drives
:class:`~repro.ormodel.vertex.OrVertexProcess` detection from any
registered policy -- ``immediate`` reproduces ``auto_initiate``,
``delayed`` transplants the section 4.3 window (a query computation
starts only after the vertex has been blocked continuously for ``T``),
and ``adaptive`` closes the loop from observed blocking lifetimes.

The wait vocabulary: an OR vertex blocks on its whole dependent set at
once and unblocks on the first grant, so the *subject* of the wait is
the vertex itself -- one wait episode per blocking, exactly like the
DDB's per-process subjects.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TYPE_CHECKING

from repro.core import scheduling
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transport import NodeContext
    from repro.ormodel.vertex import OrVertexProcess


class OrInitiationPolicy:
    """Interface; one policy instance is shared by all vertices."""

    def setup(self, vertex: "OrVertexProcess") -> None:
        """Called once per vertex at system construction."""

    def on_vertex_blocked(self, vertex: "OrVertexProcess") -> None:
        """``vertex`` just blocked on its dependent set."""
        raise NotImplementedError

    def on_vertex_unblocked(self, vertex: "OrVertexProcess") -> None:
        """``vertex`` resumed (first grant arrived)."""
        raise NotImplementedError


class _OrVertexSite:
    """One OR vertex, in the seam's site vocabulary."""

    __slots__ = ("vertex",)

    def __init__(self, vertex: "OrVertexProcess") -> None:
        self.vertex = vertex

    @property
    def ctx(self) -> "NodeContext":
        return self.vertex.ctx

    @property
    def site_key(self) -> Hashable:
        return self.vertex.vertex_id

    def initiate(self, subject: Hashable) -> None:
        self.vertex.initiate_detection()

    def is_waiting(self, subject: Hashable) -> bool:
        return self.vertex.blocked

    def timer_name(self, subject: Hashable) -> str:
        return f"or T-timer v{self.vertex.vertex_id}"

    def note_avoided(self) -> None:
        self.vertex.ctx.count("or.computations.avoided")

    def scan(self, optimized: bool) -> None:
        raise ConfigurationError(
            "the OR model has no controller scans; the 'periodic' policy "
            "drives DDB controllers only"
        )

    def scan_timer_name(self) -> str:
        raise ConfigurationError(
            "the OR model has no controller scans; the 'periodic' policy "
            "drives DDB controllers only"
        )


class OrPolicyInitiation(OrInitiationPolicy):
    """Drive OR vertices from a core scheduling policy instance."""

    def __init__(self, policy: scheduling.InitiationPolicy) -> None:
        self.policy = policy

    def setup(self, vertex: "OrVertexProcess") -> None:
        self.policy.setup(_OrVertexSite(vertex))

    def on_vertex_blocked(self, vertex: "OrVertexProcess") -> None:
        self.policy.on_waits_started(_OrVertexSite(vertex), (vertex.vertex_id,))

    def on_vertex_unblocked(self, vertex: "OrVertexProcess") -> None:
        self.policy.on_wait_resolved(_OrVertexSite(vertex), vertex.vertex_id)


def from_policy_spec(spec: scheduling.PolicySpec) -> OrPolicyInitiation:
    """Resolve a registered policy spec into an OR-model initiation."""
    return OrPolicyInitiation(scheduling.build_policy(spec, model="ormodel"))
