"""The workload seam: frozen :class:`WorkloadSpec` values and the
:class:`WorkloadFamily` registry.

This module is the single place the stack resolves "what traffic do I
run" through, mirroring the :class:`~repro.core.registry.DetectorVariant`
registry on the detector side.  A :class:`WorkloadSpec` is a pure,
picklable value naming one workload (family + topology/load parameters +
seed + duration) with a canonical ``workload_id``; a
:class:`WorkloadFamily` declares which models it can drive, how to
schedule itself onto a built system, and which outcome fields it reports.
Every runner -- the sweep engine, the conformance callables, ``repro run``
on all three transports, and the ``repro workloads`` CLI -- resolves
families here instead of keeping its own stringly-typed
scenario table.

Layering: this file is an RPX004 *seam* module (like
:mod:`repro.core.transport`): it imports nothing above
:mod:`repro.errors`, so any tier -- including the core tier's variant
registrations -- may import specs and look families up.  The family
*implementations* (which import protocol systems) live in
:mod:`repro.workloads.families`, plain harness-tier code loaded lazily on
the first lookup, exactly like the variant registry loads its built-ins.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

#: Extra workload parameters as a sorted tuple of (name, value) pairs --
#: tuples (unlike dicts) are hashable and order-canonical after sorting,
#: so they can sit inside a frozen spec and key caches.
Params = tuple[tuple[str, float], ...]


def make_params(**values: float) -> Params:
    """Canonical (sorted) params tuple from keyword arguments."""
    return tuple(sorted(values.items()))


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """One workload, as a pure picklable value.

    ``family`` names a registered :class:`WorkloadFamily`; ``n`` is the
    topology size in the family's own unit (vertices for basic-model
    families, sites for DDB families); ``seed`` feeds the family's named
    RNG stream so the generated schedule is a pure function of the spec;
    ``duration`` bounds open-ended (driver-style) families in virtual
    time; ``params`` carries family-specific load/topology knobs.

    The ``workload_id`` is part of the caching contract: sweep cells and
    result stores key on it, so its format must stay stable (guarded by
    a golden test).
    """

    family: str
    n: int
    seed: int = 0
    duration: float = 0.0
    params: Params = ()

    @property
    def workload_id(self) -> str:
        """Deterministic, human-readable identity (stable format)."""
        parts = [self.family, f"n={self.n}", f"seed={self.seed}"]
        if self.duration:
            parts.append(f"dur={self.duration:g}")
        parts.extend(f"{name}={value:g}" for name, value in self.params)
        return "/".join(parts)

    def param(self, name: str, default: float | None = None) -> float:
        """Look up one parameter; raise if absent and no default given."""
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise ConfigurationError(
                f"workload {self.workload_id} lacks parameter {name!r}"
            )
        return default

    def param_list(self, name: str) -> list[float]:
        """All values recorded under ``name`` (e.g. repeated ``tail``)."""
        return [value for key, value in self.params if key == name]

    def with_seed(self, seed: int) -> WorkloadSpec:
        """A copy of this spec under another seed (ensembles sweep seeds)."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class WorkloadFamily:
    """One registered workload family: generator + capability declaration.

    ``schedule(spec, system)`` schedules the workload onto an
    already-built system (any transport backend) and returns an opaque
    handle (or ``None``); the schedule must be a pure function of the
    spec -- all randomness through a stream named after the family, so
    the same spec yields a byte-identical schedule on every backend.
    ``build(spec, ...)`` constructs the family's default system for
    runners that do not build their own (the cluster random lane, the
    live workload lane); families whose model has a uniform constructor
    (``n_vertices``/``seed``) may leave it ``None`` and let the runner
    build through the detector variant's factory.
    ``collect(spec, system, handle)`` reduces a finished run to the
    family's extra outcome fields, whose names are declared up front in
    ``outcome_fields``.
    """

    name: str
    title: str
    description: str
    #: detector-variant models this family can drive (``"basic"``, ...).
    models: tuple[str, ...]
    #: can this family produce genuine deadlocks?
    deadlock_capable: bool
    #: does the generated schedule vary with ``spec.seed``?
    randomized: bool
    #: the source model in PAPERS.md this family reproduces (or "paper"
    #: for the source paper's own canned patterns).
    source: str
    schedule: Callable[[WorkloadSpec, Any], Any]
    #: a small, representative spec (used by determinism tests and demos).
    example: WorkloadSpec
    #: system factory for runners that do not build their own system;
    #: signature ``build(spec, *, transport=None, strict=True,
    #: delay_model=None)``.  ``None`` -> build through the variant.
    build: Callable[..., Any] | None = None
    #: names of the extra outcome fields ``collect`` reports.
    outcome_fields: tuple[str, ...] = ()
    collect: Callable[[WorkloadSpec, Any, Any], dict[str, Any]] | None = None
    #: optional spec validator (unknown extra params must be tolerated).
    validate: Callable[[WorkloadSpec], None] | None = None

    def supports_model(self, model: str) -> bool:
        return model in self.models


_REGISTRY: dict[str, WorkloadFamily] = {}
_builtins_loaded = False


def register_family(family: WorkloadFamily) -> WorkloadFamily:
    """Add a family to the registry; names are unique, order preserved.

    Returns the family so registration modules can expose the record as
    a module constant.  Registration order is observable (the default
    random family per model is the first randomized match), so built-ins
    register deterministically from :mod:`repro.workloads.families`.
    """
    if family.name in _REGISTRY:
        raise ConfigurationError(
            f"workload family {family.name!r} is already registered"
        )
    _REGISTRY[family.name] = family
    return family


def ensure_builtin_families() -> None:
    """Load the built-in registration module exactly once.

    Laziness matters for the same reason it does in the variant
    registry: the registration module imports protocol packages, and
    eager loading from this seam's import would drag protocol code into
    every tier that merely names a spec.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.workloads.families  # noqa: F401  (runs the register() calls)


def get_family(name: str) -> WorkloadFamily:
    """Look up one family by name."""
    ensure_builtin_families()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload family {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        ) from None


def all_families() -> tuple[WorkloadFamily, ...]:
    """Every registered family, in registration order."""
    ensure_builtin_families()
    return tuple(_REGISTRY.values())


def family_names() -> tuple[str, ...]:
    ensure_builtin_families()
    return tuple(_REGISTRY)


def families_for_model(model: str) -> tuple[WorkloadFamily, ...]:
    """Families declaring support for one detector-variant model."""
    return tuple(
        family for family in all_families() if family.supports_model(model)
    )


def require_model(family: WorkloadFamily, model: str) -> None:
    """Typed capability check: raise unless ``family`` can drive ``model``.

    Every runner routes model checks through here, so a mismatch always
    fails the same way -- a :class:`~repro.errors.ConfigurationError`
    naming the family and the models it *can* drive -- never a
    hard-coded model guard in a runner.
    """
    if not family.supports_model(model):
        raise ConfigurationError(
            f"workload family {family.name!r} cannot drive model {model!r}; "
            f"it drives: {', '.join(family.models)}"
        )


def default_random_family(model: str) -> WorkloadFamily:
    """The first registered randomized family that can drive ``model``.

    Used by runners whose ``random`` lane historically hard-coded the
    basic model; now any model with a randomized family gets one.
    """
    for family in all_families():
        if family.randomized and family.supports_model(model):
            return family
    raise ConfigurationError(
        f"no registered workload family drives random traffic on model "
        f"{model!r}; registered families: {', '.join(family_names())}"
    )
