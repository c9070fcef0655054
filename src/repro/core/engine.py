"""Model-independent verification bookkeeping shared by every variant.

The paper's two theorems are checked the same way in every model:

* **Soundness (QRP2 / Theorem 2)** is an *instant-of-declaration* claim:
  when step A1 fires, the declarer must satisfy the model's oracle
  criterion at that exact virtual instant.  :class:`DeclarationLog`
  records each declaration with its verdict and either raises immediately
  (strict mode) or accumulates the violation (record mode, used by the
  churn sweeps that tolerate and count phantoms).
* **Completeness (QRP1 / Theorem 1)** is a *quiescence-time* claim over
  the dark subgraph: every strongly connected component of the dark
  edges that contains a cycle must contain at least one declarer.
  :func:`dark_components` and :func:`completeness_report` implement that
  check once, generically over the node type (``VertexId`` in the basic
  model, ``ProcessId`` in the DDB model).

This module is deliberately free of protocol imports -- it sees only edge
pairs and declarer sets, never a wait-for graph or a vertex -- so the
per-model ``system.py`` wrappers can import it without any chance of an
import cycle through their package ``__init__``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro._algo import cyclic_sccs
from repro._ids import ProbeTag

Node = TypeVar("Node", bound=Hashable)
DeclarationT = TypeVar("DeclarationT")


def dark_components(edges: Iterable[tuple[Node, Node]]) -> list[set[Node]]:
    """Cyclic strongly connected components of pre-filtered dark edges.

    ``edges`` is the dark (grey-or-black) subgraph as ``(source, target)``
    pairs; the caller applies its own colour filter, which keeps this
    helper independent of any particular graph representation.  Since
    wait-for graphs have no self-loops, a component contains a cycle iff
    it has more than one node.
    """
    adjacency: dict[Node, list[Node]] = {}
    for source, target in edges:
        adjacency.setdefault(source, []).append(target)
    return cyclic_sccs(adjacency)


@dataclass
class CompletenessReport(Generic[Node]):
    """Result of the quiescence-time completeness check."""

    deadlocked_vertices: set[Node]
    declared_vertices: set[Node]
    undetected_components: list[set[Node]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.undetected_components


def completeness_report(
    dark_edges: Iterable[tuple[Node, Node]], declared: set[Node]
) -> CompletenessReport[Node]:
    """Check Theorem 1 + the section 4.2 initiation rule at quiescence.

    Every cyclic SCC of the dark subgraph must contain at least one node
    in ``declared``.  The nodes of those SCCs, the ones on a dark cycle
    (the oracle's ground truth), are carried on the report for callers
    that want detection ratios.
    """
    components = dark_components(dark_edges)
    deadlocked: set[Node] = set().union(*components)
    return CompletenessReport(
        deadlocked_vertices=deadlocked,
        declared_vertices=declared,
        undetected_components=[c for c in components if not c & declared],
    )


class DeclarationLog(Generic[DeclarationT]):
    """Declarations plus their instant-of-declaration soundness verdicts.

    The per-model system wrapper constructs one model-specific declaration
    record per A1 firing and hands it here together with the oracle's
    verdict; the log owns the strict/record policy so every variant fails
    (or counts) phantoms identically.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        #: every declaration, sound or not, in virtual-time order.
        self.declarations: list[DeclarationT] = []
        #: the subset that failed the oracle criterion when made.
        self.violations: list[DeclarationT] = []

    def record(
        self,
        declaration: DeclarationT,
        sound: bool,
        complaint: str,
    ) -> None:
        """Record one declaration; raise ``complaint`` in strict mode if
        the oracle verdict was negative."""
        self.declarations.append(declaration)
        if not sound:
            self.violations.append(declaration)
            if self.strict:
                raise AssertionError(complaint)

    def assert_sound(self, prefix: str) -> None:
        """Raise unless every recorded declaration was sound.

        ``prefix`` is the model's message prefix (e.g. ``"QRP2 violated
        by declarations: "``); the violation list is appended verbatim so
        existing failure messages are preserved across models.
        """
        if self.violations:
            raise AssertionError(f"{prefix}{self.violations}")

    def __len__(self) -> int:
        return len(self.declarations)

    def __repr__(self) -> str:
        return (
            f"DeclarationLog(declared={len(self.declarations)}, "
            f"violations={len(self.violations)}, strict={self.strict})"
        )


class ProbeAccounting:
    """Probes sent per computation tag ``(i, n)``: the one probe count.

    Each system feeds it from the tracer's message channel, one
    :meth:`count` per probe send; no handler or transport counts probes
    besides.  Section 4 bounds the probes of one computation by the
    number of wait-for edges; the sweeps report the per-computation
    maximum (experiment E3), so the counter is keyed by the full tag
    rather than the initiator, and :meth:`sent` is the run's total.
    """

    def __init__(self) -> None:
        self.per_computation: dict[ProbeTag, int] = {}

    def count(self, tag: ProbeTag) -> None:
        self.per_computation[tag] = self.per_computation.get(tag, 0) + 1

    def max_per_computation(self) -> int:
        return max(self.per_computation.values(), default=0)

    def sent(self) -> int:
        """Probes sent over every computation."""
        return sum(self.per_computation.values())

    def __repr__(self) -> str:
        return f"ProbeAccounting(computations={len(self.per_computation)})"
