"""System wrapper for the DDB model: wiring plus on-line verification.

:class:`DdbSystem` assembles a simulator, a FIFO network of N controllers,
a resource catalogue, the process-level oracle graph, an initiation policy,
and a victim policy -- and verifies the paper's claims while running:

* **Soundness:** the instant any controller declares a process ``(T, S)``
  deadlocked, the oracle is consulted; the process must be on an all-black
  cycle at that exact moment.
* **Completeness:** in detection-only mode (``NoResolution``) the
  quiescence check requires every cyclic SCC of the dark process graph to
  contain a declared process.  With resolution enabled, the corresponding
  liveness claim is that no dark cycle survives (victims break them), and
  the workload's commit counters show progress.

Both checks run through the shared machinery in :mod:`repro.core.engine`;
this wrapper adds the DDB-specific stale-declaration carve-out (a victim
abort can break a genuinely detected cycle while the final probe is in
flight).  Transaction admission and restart are exposed at this level;
workloads drive :meth:`begin` / :meth:`restart` and observe completion
through the ``finished_callback``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro._ids import ProbeTag, ProcessId, ResourceId, SiteId, TransactionId
from repro.basic.graph import EdgeColor
from repro.core.assembly import build_runtime, require_fleet
from repro.core.transport import Transport, TransportFactory
from repro.core.engine import (
    DeclarationLog,
    ProbeAccounting,
    completeness_report,
    dark_components,
)
from repro.ddb.controller import Controller
from repro.ddb.graph import DdbWaitForGraph
from repro.ddb.initiation import DdbImmediateInitiation, DdbInitiationPolicy
from repro.ddb.resolution import NoResolution, VictimPolicy
from repro.ddb.transaction import TransactionExecution, TransactionSpec
from repro.errors import ConfigurationError, ProtocolError
from repro.sim import categories
from repro.sim.network import DelayModel
from repro.sim.trace import TraceEvent


@dataclass(frozen=True)
class DdbDeclaration:
    """One controller-level deadlock declaration with its verdict."""

    time: float
    site: SiteId
    process: ProcessId
    tag: ProbeTag
    on_black_cycle: bool


@dataclass
class TransactionRecord:
    """System-level bookkeeping of one transaction across incarnations."""

    spec: TransactionSpec
    incarnation: int = 0
    #: admission-order priority for prevention schemes; retained across
    #: restarts (starvation freedom of wait-die/wound-wait relies on it)
    timestamp: int = 0
    commits: int = 0
    aborts: int = 0
    first_begin: float | None = None
    committed_at: float | None = None


def uniform_resources(n_resources: int, n_sites: int) -> dict[ResourceId, SiteId]:
    """A catalogue of ``n_resources`` spread round-robin over the sites."""
    return {
        ResourceId(f"r{i}"): SiteId(i % n_sites) for i in range(n_resources)
    }


class DdbSystem:
    """A ready-to-run DDB with N controllers.

    Parameters
    ----------
    n_sites:
        Number of computers (= controllers); site ids are ``0..n_sites-1``.
    resources:
        Either a mapping ``ResourceId -> SiteId`` (the catalogue) or an
        integer, in which case :func:`uniform_resources` builds one.
    seed, delay_model, trace, fifo:
        As in :class:`~repro.basic.system.BasicSystem`.
    initiation:
        Shared :class:`DdbInitiationPolicy` (default: immediate).
    resolution:
        Shared :class:`VictimPolicy` (default: detection-only).
    strict:
        Raise on a soundness violation instead of just recording it.
    """

    def __init__(
        self,
        n_sites: int,
        resources: Mapping[ResourceId, SiteId] | int,
        seed: int = 0,
        delay_model: DelayModel | None = None,
        initiation: DdbInitiationPolicy | None = None,
        resolution: VictimPolicy | None = None,
        strict: bool = True,
        trace: bool = True,
        fifo: bool = True,
        wfgd_on_declare: bool = False,
        prevention=None,
        transport: Transport | TransportFactory | None = None,
    ) -> None:
        require_fleet(n_sites, "site")
        if isinstance(resources, int):
            resources = uniform_resources(resources, n_sites)
        for resource, site in resources.items():
            if not 0 <= site < n_sites:
                raise ConfigurationError(
                    f"resource {resource!r} homed at invalid site {site}"
                )
        runtime = build_runtime(
            seed=seed, delay_model=delay_model, trace=trace, fifo=fifo,
            transport=transport,
        )
        self.transport = runtime.transport
        self.simulator = runtime.simulator
        self.network = runtime.network
        self.oracle = DdbWaitForGraph()
        self.resource_home: dict[ResourceId, SiteId] = dict(resources)
        self.initiation = initiation if initiation is not None else DdbImmediateInitiation()
        self.resolution = resolution if resolution is not None else NoResolution()
        #: run the lifted section 5 WFGD computation after declarations
        #: (detection-only analysis; see repro.ddb.wfgd)
        self.wfgd_on_declare = wfgd_on_declare
        #: optional deadlock-PREVENTION scheme (wait-die / wound-wait);
        #: consulted by controllers at lock-conflict time.  Normally used
        #: with DdbManualInitiation -- prevention makes detection moot.
        self.prevention = prevention
        self._timestamp_counter = 0

        self.controllers: dict[SiteId, Controller] = {}
        for i in range(n_sites):
            site = SiteId(i)
            controller = Controller(site=site, system=self)
            self.transport.register(controller)
            self.controllers[site] = controller
        for controller in self.controllers.values():
            self.initiation.setup(controller)

        self.transactions: dict[TransactionId, TransactionRecord] = {}
        self._log: DeclarationLog[DdbDeclaration] = DeclarationLog(strict=strict)
        self.declarations = self._log.declarations
        self.soundness_violations = self._log.violations
        #: Virtual time each process first joined a dark cycle.
        self.deadlock_formed_at: dict[ProcessId, float] = {}
        self._probes = ProbeAccounting()
        #: Probes sent per computation tag.
        self.probes_per_computation = self._probes.per_computation
        #: Workload hook: called as ``callback(execution, aborted)``.
        self.finished_callback: Callable[[TransactionExecution, bool], None] | None = None
        #: Times at which any transaction aborted (stale-declaration check).
        self._abort_times: list[float] = []

        tracer = self.transport.tracer
        tracer.subscribe(self._on_edge_added, categories=(categories.DDB_EDGE_ADDED,))
        tracer.subscribe(self._on_probe_sent, categories=(categories.DDB_PROBE_SENT,))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def controller(self, site: int) -> Controller:
        return self.controllers[SiteId(site)]

    @property
    def now(self) -> float:
        return self.transport.now

    @property
    def metrics(self):
        return self.transport.metrics

    @property
    def strict(self) -> bool:
        return self._log.strict

    @strict.setter
    def strict(self, value: bool) -> None:
        self._log.strict = value

    def transaction_home(self, tid: TransactionId) -> SiteId:
        return self.transactions[tid].spec.home

    def current_incarnation(self, tid: TransactionId) -> int:
        return self.transactions[tid].incarnation

    # ------------------------------------------------------------------
    # Transaction admission
    # ------------------------------------------------------------------

    def begin(self, spec: TransactionSpec, at: float | None = None) -> None:
        """Admit a new transaction, optionally at a future virtual time."""
        if spec.tid in self.transactions:
            raise ProtocolError(f"transaction T{spec.tid} already registered")
        for resource in spec.resources():
            if resource not in self.resource_home:
                raise ConfigurationError(
                    f"transaction T{spec.tid} references unknown resource {resource!r}"
                )
        self._timestamp_counter += 1
        record = TransactionRecord(spec=spec, timestamp=self._timestamp_counter)
        self.transactions[spec.tid] = record
        self._start_incarnation(record, at)

    def restart(self, tid: TransactionId, delay: float = 0.0) -> None:
        """Start the next incarnation of an aborted transaction."""
        record = self.transactions[tid]
        self._start_incarnation(record, self.now + delay)

    def _start_incarnation(self, record: TransactionRecord, at: float | None) -> None:
        record.incarnation += 1
        incarnation = record.incarnation
        home = self.controllers[record.spec.home]

        def start() -> None:
            if record.first_begin is None:
                record.first_begin = self.now
            home.begin(record.spec, incarnation, timestamp=record.timestamp)

        if at is None or at <= self.now:
            start()
        else:
            self.transport.schedule_at(at, start, name=f"begin T{record.spec.tid}")

    def on_transaction_finished(self, execution: TransactionExecution, aborted: bool) -> None:
        """Controller callback on commit or abort."""
        record = self.transactions[execution.spec.tid]
        if aborted:
            record.aborts += 1
            self._abort_times.append(self.now)
        else:
            record.commits += 1
            record.committed_at = self.now
            if record.first_begin is not None:
                self.metrics.histogram("ddb.txn.response_time").record(
                    self.now - record.first_begin
                )
        if self.finished_callback is not None:
            self.finished_callback(execution, aborted)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self.transport.run(until=until, max_events=max_events)

    def run_to_quiescence(self, max_events: int = 1_000_000) -> None:
        self.transport.run_to_quiescence(max_events=max_events)

    # ------------------------------------------------------------------
    # Verification hooks
    # ------------------------------------------------------------------

    def handle_declaration(
        self, controller: Controller, process: ProcessId, tag: ProbeTag
    ) -> None:
        on_black = self.oracle.is_on_black_cycle(process)
        declaration = DdbDeclaration(
            time=self.now,
            site=controller.site,
            process=process,
            tag=tag,
            on_black_cycle=on_black,
        )
        # In the paper's (abort-free) model a negative oracle verdict would
        # be a QRP2 violation outright.  With victim aborts enabled, a
        # concurrent abort may break a *genuinely detected* cycle while the
        # final probe is in flight; the declaration is then stale, not
        # phantom.  Stale requires (a) the process really was on a dark
        # cycle earlier, and (b) an abort occurred between that moment and
        # now.  Everything else is a true soundness violation.
        formed = self.deadlock_formed_at.get(process)
        stale = (
            not on_black
            and formed is not None
            and any(
                formed <= abort_time <= self.now for abort_time in self._abort_times
            )
        )
        if stale:
            self.metrics.counter("ddb.declarations.stale").increment()
        self._log.record(
            declaration,
            sound=on_black or stale,
            complaint=(
                f"DDB soundness violated: {process} declared deadlocked at "
                f"t={self.now} but is not on a black cycle"
            ),
        )
        if formed is not None:
            self.metrics.histogram("ddb.detection.latency").record(self.now - formed)
        self.resolution.on_declaration(controller, process, tag)

    def _on_edge_added(self, event: TraceEvent) -> None:
        source = event.details["source"]
        if self.oracle.is_on_dark_cycle(source):
            for member in self._dark_cycle_members(source):
                self.deadlock_formed_at.setdefault(member, event.time)

    def _on_probe_sent(self, event: TraceEvent) -> None:
        self._probes.count(event.details["tag"])

    def _dark_edges(self) -> list[tuple[ProcessId, ProcessId]]:
        return [
            edge
            for edge, color in self.oracle.edges()
            if color is not EdgeColor.WHITE
        ]

    def _dark_cycle_members(self, start: ProcessId) -> set[ProcessId]:
        """Processes on dark cycles in the SCC of ``start``."""
        for component in dark_components(self._dark_edges()):
            if start in component:
                return component
        return {start}

    # ------------------------------------------------------------------
    # Quiescence-time checks
    # ------------------------------------------------------------------

    def completeness_report(self) -> tuple[bool, list[set[ProcessId]]]:
        """Detection-only check: every cyclic dark SCC has a declaration.

        Returns the historical ``(complete, undetected)`` tuple shape the
        DDB experiments consume; the check itself is the shared
        :func:`repro.core.engine.completeness_report`.
        """
        report = completeness_report(
            self._dark_edges(),
            declared={d.process for d in self.declarations},
            deadlocked=self.oracle.processes_on_dark_cycles(),
        )
        return (report.complete, report.undetected_components)

    def assert_completeness(self) -> None:
        complete, undetected = self.completeness_report()
        if not complete:
            raise AssertionError(
                f"DDB completeness violated: dark components {undetected} "
                f"contain no declared process"
            )

    def assert_soundness(self) -> None:
        self._log.assert_sound("DDB soundness violated by: ")

    def assert_no_deadlock_remains(self) -> None:
        """Liveness check for resolution mode: no dark cycle survives."""
        remaining = self.oracle.processes_on_dark_cycles()
        if remaining:
            raise AssertionError(f"dark cycle survives resolution: {remaining}")

    def __repr__(self) -> str:
        return (
            f"DdbSystem(sites={len(self.controllers)}, "
            f"transactions={len(self.transactions)}, t={self.now})"
        )
