"""Quickstart: detect a deadlock in the basic model.

Three processes request actions from one another in a ring:

    p0 --waits-for--> p1 --waits-for--> p2 --waits-for--> p0

Once the ring closes, no process can ever reply (axiom G3: only active
processes reply), so all three are deadlocked.  Each process initiated a
probe computation when it sent its request (the section 4.2 rule); the
probe travelling around the black ring comes back meaningful, and step A1
declares the deadlock.  The WFGD computation of section 5 then spreads
knowledge of the deadlocked edges to every participant.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import BasicSystem
from repro.workloads.scenarios import schedule_cycle


def main() -> None:
    system = BasicSystem(n_vertices=3, wfgd_on_declare=True)
    schedule_cycle(system, [0, 1, 2], gap=0.5)
    system.run_to_quiescence()

    print("== declarations (step A1) ==")
    for declaration in system.declarations:
        print(
            f"t={declaration.time:6.3f}  vertex {declaration.vertex} is on a black "
            f"cycle  (computation tag {declaration.tag})"
        )

    print("\n== WFGD knowledge (section 5) ==")
    for i in range(3):
        vertex = system.vertex(i)
        edges = ", ".join(f"{a}->{b}" for a, b in sorted(vertex.wfgd.paths))
        print(f"vertex {i} knows permanent black paths: {edges}")

    # The library verified both theorems while the simulation ran:
    system.assert_soundness()      # QRP2: nobody declared falsely
    system.assert_completeness()   # QRP1: the deadlock was detected
    print("\nsoundness + completeness hold (checked against the global oracle)")

    probes = system.probes_sent
    print(f"probe messages used: {probes} (bound: one per edge per computation)")


if __name__ == "__main__":
    main()
