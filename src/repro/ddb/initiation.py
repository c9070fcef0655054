"""DDB adapters onto the scheduling seam (sections 4.2, 4.3, 6.7).

The timer machinery behind these policies lives in
:mod:`repro.core.scheduling`, shared with the basic and OR models; this
module is the thin model adapter.  It translates the DDB's process
lifecycle (``on_process_blocked`` / ``on_process_unblocked``) into the
seam's wait vocabulary, exposes one controller as an
:class:`~repro.core.scheduling.InitiationSite`, and -- uniquely among
the models -- implements the *scan* capability the ``periodic`` policy
drives.

The historical class names remain the construction API:

* :class:`DdbImmediateInitiation` -- the section 4.2 rule lifted to the
  DDB (:class:`~repro.core.scheduling.ImmediatePolicy`): whenever a
  process at this controller becomes blocked (gains its first outgoing
  edge of a blocking episode), initiate a computation about it.
* :class:`DdbDelayedInitiation` -- section 4.3's delayed-T rule
  (:class:`~repro.core.scheduling.DelayedPolicy`): a computation about a
  process starts only after it has been blocked continuously for ``T``.
* :class:`DdbPeriodicInitiation` -- controllers scan on a timer
  (:class:`~repro.core.scheduling.PeriodicPolicy`).  In *naive* mode a
  scan initiates one computation per blocked constituent process; in
  *optimised* mode (section 6.7) the controller first looks for a purely
  local intra-controller cycle, and otherwise initiates only Q
  computations -- one per constituent process with an incoming black
  inter-controller edge.  Experiment E7 compares the two.
* :class:`DdbManualInitiation` -- no automatic initiation (scenario
  tests call :meth:`Controller.initiate_for` directly).

Registry-driven callers (sweep cells, ``--policy`` flags) resolve any
registered policy -- including ``adaptive`` -- via
:func:`from_policy_spec`.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TYPE_CHECKING

from repro._ids import ProcessId
from repro.core import scheduling

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transport import NodeContext
    from repro.ddb.controller import Controller


class DdbInitiationPolicy:
    """Interface; one policy instance is shared by all controllers."""

    def on_process_blocked(self, controller: "Controller", process: ProcessId) -> None:
        """``process`` at ``controller`` just gained outgoing edges."""

    def on_process_unblocked(self, controller: "Controller", process: ProcessId) -> None:
        """``process`` at ``controller`` resumed (granted or aborted)."""

    def setup(self, controller: "Controller") -> None:
        """Called once per controller at system construction."""


class _ControllerSite:
    """One DDB controller, in the seam's site vocabulary.

    Subjects are constituent :class:`~repro._ids.ProcessId`\\ s; the scan
    capability carries the section 6.7 reduction, so the shared
    ``periodic`` policy stays model-neutral.
    """

    __slots__ = ("controller",)

    def __init__(self, controller: "Controller") -> None:
        self.controller = controller

    @property
    def ctx(self) -> "NodeContext":
        return self.controller.ctx

    @property
    def site_key(self) -> Hashable:
        return self.controller.site

    def initiate(self, subject: Hashable) -> None:
        self.controller.initiate_for(subject)

    def is_waiting(self, subject: Hashable) -> bool:
        return self.controller.is_process_blocked(subject)

    def timer_name(self, subject: Hashable) -> str:
        return f"ddb T-timer {subject}"

    def note_avoided(self) -> None:
        self.controller.ctx.count("ddb.computations.avoided")

    def scan(self, optimized: bool) -> None:
        controller = self.controller
        controller.ctx.count("ddb.scans")
        blocked = controller.blocked_processes()
        if optimized:
            # Section 6.7: any constituent process on a local cycle is
            # found by one local check; otherwise every dark cycle through
            # this site enters through an incoming black inter-controller
            # edge, so Q computations (one per such process) suffice.
            local_cycle_member = controller.find_local_cycle_member()
            if local_cycle_member is not None:
                controller.initiate_for(local_cycle_member)
            else:
                for process in controller.processes_with_incoming_black_inter_edges():
                    controller.initiate_for(process)
        else:
            for process in blocked:
                controller.initiate_for(process)

    def scan_timer_name(self) -> str:
        return f"ddb scan C{self.controller.site}"


class DdbPolicyInitiation(DdbInitiationPolicy):
    """Drive DDB controllers from a core scheduling policy instance."""

    def __init__(self, policy: scheduling.InitiationPolicy) -> None:
        self.policy = policy
        #: the one site view of each controller, built at :meth:`setup`
        self._sites: dict["Controller", _ControllerSite] = {}

    def setup(self, controller: "Controller") -> None:
        site = self._sites[controller] = _ControllerSite(controller)
        self.policy.setup(site)

    def on_process_blocked(self, controller: "Controller", process: ProcessId) -> None:
        self.policy.on_waits_started(self._sites[controller], (process,))

    def on_process_unblocked(self, controller: "Controller", process: ProcessId) -> None:
        self.policy.on_wait_resolved(self._sites[controller], process)


class DdbManualInitiation(DdbPolicyInitiation):
    """Never initiates automatically."""

    def __init__(self) -> None:
        super().__init__(scheduling.ManualPolicy())


class DdbImmediateInitiation(DdbPolicyInitiation):
    """Initiate about each process the moment it blocks."""

    def __init__(self) -> None:
        super().__init__(scheduling.ImmediatePolicy())


class DdbDelayedInitiation(DdbPolicyInitiation):
    """Section 4.3's delayed-T rule lifted to the DDB.

    A probe computation about a process starts only after the process has
    been blocked *continuously* for ``T`` time units; resolving the wait
    sooner cancels the timer ("has avoided initiating a probe
    computation").  Deadlocked processes stay blocked forever, so their
    timers always fire -- completeness is preserved at latency >= T, the
    same tradeoff the shared :class:`~repro.core.scheduling.DelayedPolicy`
    applies at basic-model vertices.
    """

    def __init__(self, timeout: float) -> None:
        super().__init__(scheduling.DelayedPolicy(timeout))

    @property
    def timeout(self) -> float:
        delayed = self.policy
        assert isinstance(delayed, scheduling.DelayedPolicy)
        return delayed.timeout


class DdbPeriodicInitiation(DdbPolicyInitiation):
    """Timer-driven controller scans, naive or 6.7-optimised.

    Parameters
    ----------
    period:
        Virtual-time interval between scans at each controller.
    optimized:
        Apply the section 6.7 reduction (local-cycle check, then only
        processes with incoming black inter-controller edges).
    horizon:
        Stop rescheduling scans after this virtual time (experiments run
        for a bounded time; without a horizon the simulation never
        quiesces).
    """

    def __init__(
        self, period: float, optimized: bool = True, horizon: float = float("inf")
    ) -> None:
        super().__init__(scheduling.PeriodicPolicy(period, optimized, horizon))

    @property
    def period(self) -> float:
        periodic = self.policy
        assert isinstance(periodic, scheduling.PeriodicPolicy)
        return periodic.period

    @property
    def optimized(self) -> bool:
        periodic = self.policy
        assert isinstance(periodic, scheduling.PeriodicPolicy)
        return periodic.optimized


def from_policy_spec(spec: scheduling.PolicySpec) -> DdbPolicyInitiation:
    """Resolve a registered policy spec into a DDB initiation."""
    return DdbPolicyInitiation(scheduling.build_policy(spec, model="ddb"))
