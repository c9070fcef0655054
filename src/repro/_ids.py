"""Typed identifiers used throughout the library.

The paper identifies three kinds of named entities:

* basic-model processes / vertices ``v_i`` (``VertexId``),
* DDB computers / sites ``S_j`` and their controllers ``C_j`` (``SiteId``),
* DDB transactions ``T_i`` (``TransactionId``).

A DDB *process* is the pair ``(T_i, S_j)`` (``ProcessId``); resources are
named by ``ResourceId``.  Probe computations are tagged ``(initiator, n)``
(``ProbeTag``), matching the paper's ``(i, n)`` tags.

The scalar identifiers are ``NewType`` wrappers over ``int``/``str`` so
they stay hashable, orderable, and cheap, while letting type checkers catch
cross-wiring (e.g. passing a transaction id where a site id is expected).
The two composite identifiers are frozen dataclasses: ``ProcessId`` is
backed by the tuple ``(transaction, site)`` so that hashing, equality and
ordering run at C speed on the DDB hot path, and ``ProbeTag`` is a plain
ordered dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NewType

VertexId = NewType("VertexId", int)
SiteId = NewType("SiteId", int)
TransactionId = NewType("TransactionId", int)
ResourceId = NewType("ResourceId", str)


@dataclass(frozen=True, eq=False, init=False)
class ProcessId(tuple[TransactionId, SiteId]):
    """Identity of a DDB process: the tuple ``(T_i, S_j)`` from the paper.

    A transaction is implemented by a collection of processes with at most
    one process per computer; ``ProcessId`` uniquely identifies one of them.

    The instance *is* the tuple ``(transaction, site)``: hashing, equality
    and ordering are the tuple's own.  So ``hash(p) == hash((t, s))``,
    processes sort lexicographically on ``(transaction, site)``, and a
    ``ProcessId`` compares equal to the plain tuple ``(t, s)``.  The hash
    must stay the tuple's: every set and dict of processes then iterates in
    the order it did when the class was an ordinary frozen dataclass, which
    keeps traces, probe order and sweep shape hashes unchanged.  It is
    still a frozen dataclass with fields ``transaction`` and ``site``, so
    the tagged-JSON codecs encode and rebuild it by field name.
    """

    __slots__ = ()

    transaction: TransactionId = property(itemgetter(0))  # type: ignore[assignment]
    site: SiteId = property(itemgetter(1))  # type: ignore[assignment]

    def __new__(cls, transaction: TransactionId, site: SiteId) -> ProcessId:
        return tuple.__new__(cls, (transaction, site))

    def __reduce__(self) -> tuple[type[ProcessId], tuple[TransactionId, SiteId]]:
        return (ProcessId, (self[0], self[1]))

    def __str__(self) -> str:
        return f"(T{self[0]},S{self[1]})"


@dataclass(frozen=True, order=True)
class ProbeTag:
    """Tag ``(i, n)`` of the n-th probe computation initiated by ``i``.

    ``initiator`` is a :class:`VertexId` in the basic model and a
    :class:`SiteId` (the controller) in the DDB model; both are ints, so the
    tag is shared between the two models.  ``sequence`` is the per-initiator
    computation counter ``n``.  Tags order lexicographically, which gives the
    "computation (i, n) supersedes (i, k) for k < n" rule from section 4.3
    for free.
    """

    initiator: int
    sequence: int

    def supersedes(self, other: "ProbeTag") -> bool:
        """True iff this tag makes ``other`` obsolete per section 4.3."""
        return self.initiator == other.initiator and self.sequence > other.sequence

    def __str__(self) -> str:
        return f"({self.initiator},{self.sequence})"
