"""The detector-variant registry: name -> factory + capabilities.

A :class:`DetectorVariant` is the unit the harness layers programme
against.  ``sweep`` resolves system factories and the overlay detector
order here, ``obs`` derives its span schemas from the registered message
taxonomies, ``cli`` generates its demo subcommands from the registered
:class:`DemoSpec` records, and the conformance suite iterates
:func:`all_variants` -- so adding a detector variant is one package plus
one :func:`register` call, with no edits to any of those consumers.

Built-in variants live in :mod:`repro.core.variants` and are loaded
lazily on the first lookup.  The laziness matters: registration modules
import protocol packages (``repro.basic`` & co), and those packages'
``system.py`` modules import :mod:`repro.core.engine`; eager loading from
this module's import would recurse through a partially initialised
package.  Lookup-time loading breaks the cycle without weakening either
import direction.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, Final

from repro.core.conformance import ConformanceOutcome
from repro.errors import ConfigurationError

#: Static-introspection hook: capability ``model`` name -> the protocol
#: package (under ``repro/``) whose handlers speak that model's protocol.
#: The lint layer (:mod:`repro.lint.project`) uses this to check handler
#: code against registered taxonomies *without* importing any protocol
#: module: importing this module is safe (built-in registrations load
#: lazily, on first variant lookup), so the mapping is available to
#: build-time tooling that must never execute protocol code.
MODEL_PACKAGES: Final[Mapping[str, str]] = {
    "basic": "basic",
    "ormodel": "ormodel",
    "ddb": "ddb",
}

#: Static-introspection hook: where the built-in ``register()`` calls
#: live, as package-relative path parts.  The lint layer resolves each
#: variant's :class:`MessageTaxonomy` by parsing these modules' ASTs.
VARIANT_REGISTRATION_PACKAGE: Final[tuple[str, ...]] = ("repro", "core", "variants")


@dataclass(frozen=True)
class MessageTaxonomy:
    """Trace-category names and detail keys of one model's probe lifecycle.

    This is what :mod:`repro.obs.spans` folds a flat trace with: the four
    lifecycle categories (step A0 initiation, A2 sends/receives, the A1
    declaration) plus the per-model detail-key names (the basic model
    records ``source``/``target`` vertices, the DDB model records
    ``site``/``destination`` and a canonical ``edge`` label), and the
    message class a probe travels as, which is how a reader of the
    tracer's message channel tells a probe send from base traffic.
    """

    initiated: str
    probe_sent: str
    probe_received: str
    declared: str
    #: the message class of a probe on the wire (``Probe``, ``DdbProbe``).
    probe_message: type
    #: detail keys of a sent probe's network endpoints (sender, receiver).
    endpoint_keys: tuple[str, str]
    #: detail key(s) naming the wait-for edge a probe travelled.  A single
    #: key reads that detail verbatim, and the probe message carries the
    #: same label as an attribute of that name; keys equal to
    #: ``endpoint_keys`` name the channel ``(sender, receiver)``.
    edge_keys: tuple[str, ...]
    #: detail key naming the declarer on the declaration event.
    declared_by_key: str

    def lifecycle_categories(self) -> dict[str, str]:
        """Field-name -> category for the four probe-lifecycle events.

        Static-introspection hook: the lint layer compares this mapping
        (resolved from the registration module's AST) against the trace
        calls actually present in the model's handler code, and the
        registry round-trip test compares the AST-resolved view against
        this runtime one.
        """
        return {
            "initiated": self.initiated,
            "probe_sent": self.probe_sent,
            "probe_received": self.probe_received,
            "declared": self.declared,
        }


@dataclass(frozen=True)
class VariantCapabilities:
    """What a detector variant is and which harness features it supports."""

    #: oracle/trace family the variant runs against (basic / ormodel / ddb).
    model: str
    #: ``"protocol"`` for the paper's detectors (the system IS the
    #: detector), ``"overlay"`` for baselines bound onto a host system.
    kind: str
    #: one-line statement of the ground-truth criterion declarations are
    #: checked against at the instant they are made.
    oracle_criterion: str
    #: sweep scenario names (:mod:`repro.sweep`) this variant can drive.
    scenarios: tuple[str, ...]
    #: probe-lifecycle taxonomy for span reconstruction; ``None`` for
    #: variants whose messages are not probe computations.
    taxonomy: MessageTaxonomy | None = None


@dataclass(frozen=True)
class DemoSpec:
    """A CLI demo subcommand contributed by a variant."""

    command: str
    help: str
    run: Callable[[], int]


@dataclass(frozen=True)
class DetectorVariant:
    """One registered detector: factory, capabilities, conformance, demo."""

    name: str
    title: str
    capabilities: VariantCapabilities
    #: system factory for protocol variants (``build(n_vertices=..., ...)``),
    #: detector factory for overlays (``build(host_system, **settings)``).
    build: Callable[..., Any]
    #: ``conformance(scenario, seed, transport=None)`` runs one standard
    #: scenario; ``transport`` selects the runtime backend (an instance
    #: or factory forwarded to the system constructor, ``None`` for the
    #: deterministic simulator).
    conformance: Callable[..., ConformanceOutcome]
    demo: DemoSpec | None = None


_REGISTRY: dict[str, DetectorVariant] = {}
_builtins_loaded = False


def register(variant: DetectorVariant) -> DetectorVariant:
    """Add a variant to the registry; names are unique, order preserved.

    Returns the variant so registration modules can expose the record as
    a module constant.  Registration order is observable (sweep's e8 grid
    indexes overlays by position), so built-ins register deterministically
    from :mod:`repro.core.variants`.
    """
    if variant.name in _REGISTRY:
        raise ConfigurationError(
            f"detector variant {variant.name!r} is already registered"
        )
    _REGISTRY[variant.name] = variant
    return variant


def ensure_builtin_variants() -> None:
    """Load the built-in registration modules exactly once."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    # Importing the package runs the register() calls in its __init__.
    import repro.core.variants  # noqa: F401


def get_variant(name: str) -> DetectorVariant:
    """Look up one variant by name."""
    ensure_builtin_variants()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector variant {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        ) from None


def all_variants() -> tuple[DetectorVariant, ...]:
    """Every registered variant, in registration order."""
    ensure_builtin_variants()
    return tuple(_REGISTRY.values())


def variant_names() -> tuple[str, ...]:
    ensure_builtin_variants()
    return tuple(_REGISTRY)


def overlay_variants() -> tuple[DetectorVariant, ...]:
    """The overlay (baseline) variants, in registration order.

    Position is part of the sweep contract: e8 grid cells carry a
    ``detector`` index where 0 is the paper's probe computation and
    ``i >= 1`` is ``overlay_variants()[i - 1]``.
    """
    return tuple(
        variant
        for variant in all_variants()
        if variant.capabilities.kind == "overlay"
    )


def variants_for_scenario(scenario: str) -> tuple[DetectorVariant, ...]:
    """Variants claiming support for one sweep scenario name."""
    return tuple(
        variant
        for variant in all_variants()
        if scenario in variant.capabilities.scenarios
    )
