"""The any/all difference: AND-model vs OR-model deadlock.

The paper's introduction separates two worlds: in the *resource (AND)
model* a process needs ALL the resources it requested; in the *message
(OR) model* of its reference [1] a process proceeds after communicating
with ANY ONE of the processes it waits for.  "The any/all difference in
these models results in completely different algorithms."

This example runs the SAME wait topology under both models:

    p0 waits on {p1, p3};  p1 waits on p2;  p2 waits on p0;  p3 is free.

* AND model: p0 needs BOTH p1 and p3.  The branch p0->p1->p2->p0 is a
  dark cycle; p0 is deadlocked even though p3 answers.  The probe
  computation (sections 2-4) detects it.
* OR model: p0 needs ANY of p1, p3.  p3 grants, p0 proceeds, the whole
  chain unwinds: no deadlock, and the query computation stays silent.

Then a genuinely dead OR configuration (a knot: every escape route leads
back into the blocked set) is detected by the communication-model
algorithm -- the "different algorithm" the paper's section 7 calls for.

Run:  python examples/or_model.py
"""

from __future__ import annotations

from repro import BasicSystem
from repro.ormodel import OrSystem


def and_model() -> None:
    system = BasicSystem(n_vertices=4)
    system.schedule_request(0.0, 0, [1, 3])
    system.schedule_request(0.5, 1, [2])
    system.schedule_request(1.0, 2, [0])
    system.run_to_quiescence()
    system.assert_soundness()
    declared = sorted({int(d.vertex) for d in system.declarations})
    print("AND model:  p0 needs ALL of {p1, p3}")
    print(f"  deadlock declared by vertices {declared}")
    print(f"  p0 blocked forever: {system.vertex(0).blocked}")


def or_model_same_topology() -> None:
    system = OrSystem(n_vertices=4)
    system.schedule_request(0.0, 0, [1, 3])
    system.schedule_request(0.5, 1, [2])
    system.schedule_request(1.0, 2, [0])
    system.run_to_quiescence()
    system.assert_soundness()
    print("\nOR model:   p0 needs ANY of {p1, p3}")
    print(f"  declarations: {system.declarations}")
    print(f"  everyone active again: {all(v.active for v in system.vertices.values())}")


def or_model_knot() -> None:
    # p0 waits any{p1, p2}; p1 waits any{p0}; p2 waits any{p0}: every
    # alternative leads back into the blocked set -- a genuine OR deadlock.
    system = OrSystem(n_vertices=3)
    system.schedule_request(0.0, 1, [0])
    system.schedule_request(0.3, 2, [0])
    system.schedule_request(0.6, 0, [1, 2])
    system.run_to_quiescence()
    system.assert_soundness()
    system.assert_completeness()
    declared = sorted({int(d.vertex) for d in system.declarations})
    print("\nOR model:   a knot -- p0 waits any{p1,p2}, both wait any{p0}")
    print(f"  deadlock declared by vertices {declared}")
    queries = system.counts["or.queries.sent"]
    replies = system.counts["or.replies.sent"]
    print(f"  query/reply traffic: {queries} queries, {replies} replies")


def main() -> None:
    and_model()
    or_model_same_topology()
    or_model_knot()
    print(
        "\nSame wait-for shape, opposite verdicts -- exactly the any/all "
        "difference the paper's\nintroduction draws between the resource "
        "model (this paper) and the message model\n(its reference [1], "
        "implemented here as the follow-up communication-model algorithm)."
    )


if __name__ == "__main__":
    main()
