"""Shared system assembly: the pluggable node runtime.

Every variant's system wrapper opens the same way -- validate the fleet
size, build a runtime, register its nodes.  :func:`build_runtime`
centralises the construction and makes the backend pluggable through the
:class:`~repro.core.transport.Transport` seam:

* by default it assembles the deterministic simulator pair wrapped in a
  :class:`~repro.sim.transport.SimTransport`.  The order is load-bearing:
  the network draws its delay streams from the simulator's root RNG, so
  building the simulator first (and exactly once) is what makes a run a
  pure function of its seed;
* given ``transport=``, it accepts either a ready
  :class:`~repro.core.transport.Transport` instance or a factory
  (typically a transport class, e.g.
  ``repro.live.transport.AsyncioTransport``) called with the same
  ``seed``/``delay_model``/``trace``/``fifo`` knobs.  Factories keep this
  module free of any driver-tier import: callers hand the backend in,
  core never reaches up for one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.transport import Transport, TransportFactory
from repro.errors import ConfigurationError
from repro.sim.network import DelayModel, Network
from repro.sim.simulator import Simulator
from repro.sim.transport import SimTransport


@dataclass(frozen=True)
class Runtime:
    """The substrate a system wrapper builds on.

    ``simulator``/``network`` are populated only for the simulator
    backend (harness layers -- profiling, ablation hooks -- reach them
    there); transport-neutral code uses ``transport`` alone.
    """

    transport: Transport
    simulator: Simulator | None = None
    network: Network | None = None


def build_runtime(
    *,
    seed: int = 0,
    delay_model: DelayModel | None = None,
    trace: bool = True,
    fifo: bool = True,
    transport: Transport | TransportFactory | None = None,
) -> Runtime:
    """Build the runtime every variant shares.

    ``trace=False`` is the big-sweep fast path (a category nobody
    subscribed to costs its producer one route-table test);
    ``fifo=False`` exists only for the ablation tests that demonstrate
    the algorithm's dependence on per-channel FIFO.
    ``transport`` selects the backend: ``None`` for the deterministic
    simulator, an instance to adopt as-is, or a factory called with the
    knobs above.
    """
    if transport is None:
        simulator = Simulator(seed=seed, trace=trace)
        network = Network(simulator, delay_model=delay_model, fifo=fifo)
        return Runtime(
            transport=SimTransport(simulator, network),
            simulator=simulator,
            network=network,
        )
    if isinstance(transport, SimTransport):
        return Runtime(
            transport=transport,
            simulator=transport.simulator,
            network=transport.network,
        )
    if not isinstance(transport, type) and isinstance(transport, Transport):
        return Runtime(transport=transport)
    built = transport(seed=seed, delay_model=delay_model, trace=trace, fifo=fifo)
    if isinstance(built, SimTransport):
        return Runtime(
            transport=built, simulator=built.simulator, network=built.network
        )
    return Runtime(transport=built)


def require_fleet(count: int, noun: str) -> None:
    """Reject empty fleets with the per-model message (vertex / site)."""
    if count < 1:
        raise ConfigurationError(f"need at least one {noun}, got {count}")
