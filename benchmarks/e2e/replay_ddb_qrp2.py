"""Replay the DDB victim-restart run that declares a live process deadlocked.

With victim abort and restart (``resolve=1``) about one ``ddb-hot`` run
in a hundred records QRP2 violations, which is why the ``sim-ddb-hot``
lane runs detection only.  This script replays one such run on the
simulator and checks its declarations::

    python3 benchmarks/e2e/replay_ddb_qrp2.py [--seed 104742]

For each unsound declaration it prints the declared process, its
recorded formation time (none, in the known failures) and what became
of its transaction.  The exit code is 1 while the run declares a
process that is not deadlocked, and 0 once every declaration is sound.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if not __package__:
    # Run as a script: make the ``benchmarks.e2e`` package importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import benchmarks.e2e  # noqa: F401  (puts ``src`` on the path)
from repro.core.assembly import build_runtime
from repro.core.registry import get_variant
from repro.workloads.provision import provision_workload
from repro.workloads.spec import WorkloadSpec, make_params

#: the smallest configuration the failures were found at.
SPEC = WorkloadSpec(
    family="ddb-hot",
    n=8,
    duration=500.0,
    params=make_params(resources=64, load=4, window=100, resolve=1),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=104742)
    args = parser.parse_args(argv)
    spec = SPEC.with_seed(args.seed)
    run = provision_workload(
        get_variant("ddb"), spec, transport=build_runtime(seed=args.seed, trace=False).transport
    )
    run.run_to_quiescence()
    system = run.system
    outcome = run.summarize()
    print(f"{spec.workload_id}: {len(system.declarations)} declarations, "
          f"{outcome.soundness_violations} unsound, complete={outcome.complete}")
    for declaration in system.soundness_violations:
        process = declaration.process
        record = system.transactions[process.transaction]
        print(
            f"  t={declaration.time:.3f} {process} declared by site {declaration.site}: "
            f"formed_at={system.deadlock_formed_at.get(process)}, transaction "
            f"aborts={record.aborts} commits={record.commits}"
        )
    return 1 if outcome.soundness_violations else 0


if __name__ == "__main__":
    sys.exit(main())
