"""The protocol-engine core: one harness layer, N pluggable detectors.

The three ``*System`` wrappers (:class:`~repro.basic.system.BasicSystem`,
:class:`~repro.ddb.system.DdbSystem`, :class:`~repro.ormodel.system.OrSystem`)
and the baseline overlays all do the same four jobs: assemble a
deterministic runtime (simulator + FIFO network), record declarations with
an instant-of-declaration oracle verdict (theorem QRP2 checked **at the
moment step A1 fires**, in strict or record mode), report completeness at
quiescence over the cyclic SCCs of the dark subgraph (theorem QRP1), and
count probes per computation tag (section 4).  This package owns those
jobs once:

* :mod:`repro.core.engine` -- declaration log, dark-component
  completeness, probe accounting.  Pure bookkeeping: no protocol imports.
* :mod:`repro.core.assembly` -- the shared simulator/network runtime,
  fleet-size validation, and ``ProtocolSystem`` / ``ProbeSystem``, the base
  the three system wrappers subclass.
* :mod:`repro.core.registry` -- the :class:`DetectorVariant` registry:
  name -> factory + capabilities (oracle criterion, message taxonomy,
  supported sweep scenarios).  ``sweep``, ``obs``, ``cli`` and the
  experiment modules resolve detectors here instead of importing them.
* :mod:`repro.core.conformance` -- the cross-variant conformance
  contract: every registered variant must pass a small deadlock and a
  deadlock-free scenario with zero soundness violations.
* :mod:`repro.core.variants` -- registration modules for the built-in
  variants (``basic``, ``ormodel``, ``ddb`` and the four baseline
  overlays).  Loaded lazily on first registry lookup so importing a
  protocol package never recurses back through here.

Layering (lint rule RPX004): ``core`` sits between the protocol tier and
the harness tier -- protocol < core < harness < driver.  Core code may
import protocol packages, never the harness or driver; the per-model
``system.py`` modules belong to this tier because they hold the global
oracle state that axiom P3 forbids protocol code from seeing.
"""

from repro.core.assembly import Runtime, build_runtime, require_fleet
from repro.core.conformance import CONFORMANCE_SCENARIOS, ConformanceOutcome
from repro.core.engine import (
    CompletenessReport,
    DeclarationLog,
    ProbeAccounting,
    completeness_report,
    dark_components,
)
from repro.core.registry import (
    DemoSpec,
    DetectorVariant,
    MessageTaxonomy,
    VariantCapabilities,
    all_variants,
    get_variant,
    overlay_variants,
    register,
    variant_names,
    variants_for_scenario,
)

__all__ = [
    "CONFORMANCE_SCENARIOS",
    "CompletenessReport",
    "ConformanceOutcome",
    "DeclarationLog",
    "DemoSpec",
    "DetectorVariant",
    "MessageTaxonomy",
    "ProbeAccounting",
    "Runtime",
    "VariantCapabilities",
    "all_variants",
    "build_runtime",
    "completeness_report",
    "dark_components",
    "get_variant",
    "overlay_variants",
    "register",
    "require_fleet",
    "variant_names",
    "variants_for_scenario",
]
