"""Discrete-event simulation substrate.

The paper assumes a distributed system in which messages are delivered
reliably, in the order sent, after an arbitrary finite delay (process axiom
P4 and the channel assumption in section 2.4).  This package provides
exactly that environment as a deterministic discrete-event simulation:

* :class:`~repro.sim.clock.Clock` -- virtual time.
* :class:`~repro.sim.events.EventQueue` -- a stable priority queue of heap
  payloads: timer :class:`~repro.sim.events.Event` objects, each its own
  cancellation handle, and the network's message deliveries.
* :class:`~repro.sim.simulator.Simulator` -- the engine: schedule callbacks,
  step or run until quiescence / a deadline.
* :class:`~repro.sim.process.Process` -- actor base class with a message
  handler, used by vertices and controllers.
* :class:`~repro.sim.network.Network` -- per-channel FIFO message delivery
  with pluggable delay models; the FIFO guarantee is what makes axioms
  P1/P2 hold.
* :class:`~repro.sim.trace.Tracer` and
  :class:`~repro.sim.metrics.MetricsRegistry` -- observation.
* :class:`~repro.sim.rng.RngRegistry` -- named, reproducible random streams.

Everything is deterministic given a seed, so every experiment in
EXPERIMENTS.md is exactly reproducible.
"""

from repro.sim.clock import Clock
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    TimeSeries,
)
from repro.sim.network import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    Network,
    UniformDelay,
)
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Clock",
    "Counter",
    "DelayModel",
    "Event",
    "EventQueue",
    "ExponentialDelay",
    "FixedDelay",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Network",
    "Process",
    "RngRegistry",
    "Sample",
    "Simulator",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "UniformDelay",
]
