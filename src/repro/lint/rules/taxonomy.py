"""RPX008: handler message flow must match the registered taxonomies."""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ProjectAnalysis, TaxonomyInfo, _module_name
from repro.lint.rules.base import ProjectRule

#: per-lifecycle-field detail keys a trace call must carry, mirroring
#: what ``repro.obs.spans.schema_from_taxonomy`` reads off each event:
#: sent events carry the endpoints and the edge label, received events
#: the edge label, declarations the declarer.  Every lifecycle event
#: additionally carries the probe ``tag`` (step A0 identity).
_FIELD_KEY_SOURCES = {
    "initiated": (),
    "probe_sent": ("endpoint_keys", "edge_keys"),
    "probe_received": ("edge_keys",),
    "declared": ("declared_by_key",),
}


def _required_keys(taxonomy: TaxonomyInfo, field: str) -> set[str]:
    required = {"tag"}
    for source in _FIELD_KEY_SOURCES[field]:
        value = getattr(taxonomy, source)
        if isinstance(value, str):
            required.add(value)
        elif value is not None:
            required.update(value)
    return required


class TaxonomyConformanceRule(ProjectRule):
    """RPX008: sends, dispatches and traces agree with the registry."""

    rule_id = "RPX008"
    title = "handler message flow must conform to the registered MessageTaxonomy"
    explanation = (
        "The paper's correctness argument (soundness QRP2, completeness QRP1)\n"
        "assumes every vertex speaks exactly the declared probe protocol.  In\n"
        "this codebase that declaration is the MessageTaxonomy each variant\n"
        "registers in repro.core.registry: obs.spans folds traces with it, the\n"
        "oracle checks declarations against it, and sweep trusts it.  This\n"
        "rule closes the loop statically, from the parsed ASTs alone (no\n"
        "protocol module is imported):\n"
        "\n"
        "* every lifecycle category a taxonomy declares resolves to a\n"
        "  registered repro.sim.categories constant AND is actually traced by\n"
        "  the model's handler code — a dead taxonomy entry means spans would\n"
        "  silently reconstruct nothing;\n"
        "* every trace call recording a lifecycle category carries the detail\n"
        "  keys the taxonomy promises (endpoint_keys on sends, edge_keys on\n"
        "  sends/receives, declared_by_key on declarations, tag everywhere),\n"
        "  so span reconstruction never KeyErrors at analysis time;\n"
        "* every message class a handler sends is a frozen dataclass declared\n"
        "  in the package's messages.py (undeclared sends are errors), is\n"
        "  dispatched on by some handler, and conversely every declared\n"
        "  message class is actually used (dead declarations are errors)."
    )

    def check_project(self, analysis: ProjectAnalysis) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        diagnostics.extend(self._check_taxonomies(analysis))
        diagnostics.extend(self._check_message_flow(analysis))
        return diagnostics

    # -- taxonomy side ---------------------------------------------------

    def _check_taxonomies(self, analysis: ProjectAnalysis) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        registered = set(analysis.category_values.values())
        for taxonomy in analysis.taxonomies:
            for field, category in sorted(taxonomy.categories.items()):
                raw = taxonomy.raw.get(field, "<missing>")
                if category is None:
                    diagnostics.append(
                        self.diagnostic_at(
                            taxonomy.ref,
                            f"taxonomy of variant '{taxonomy.variant}': field "
                            f"'{field}' ({raw}) does not resolve to a "
                            "repro.sim.categories constant",
                        )
                    )
                    continue
                if category not in registered:
                    diagnostics.append(
                        self.diagnostic_at(
                            taxonomy.ref,
                            f"taxonomy of variant '{taxonomy.variant}': field "
                            f"'{field}' names unregistered category "
                            f"'{category}'",
                        )
                    )
            package = analysis.package_for_model(taxonomy.model)
            if package is None:
                continue
            diagnostics.extend(self._check_package(analysis, taxonomy, package))
        return diagnostics

    def _check_package(
        self, analysis: ProjectAnalysis, taxonomy: TaxonomyInfo, package: str
    ) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        sites = analysis.package_trace_sites(package)
        traced = {site.category for site in sites if site.category is not None}
        for field, category in sorted(taxonomy.categories.items()):
            if category is None:
                continue
            if category not in traced:
                diagnostics.append(
                    self.diagnostic_at(
                        taxonomy.ref,
                        f"dead taxonomy entry: variant '{taxonomy.variant}' "
                        f"declares {field}='{category}' but no handler in "
                        f"repro/{package}/ ever traces it",
                    )
                )
                continue
            required = _required_keys(taxonomy, field)
            for site in sites:
                if site.category != category:
                    continue
                missing = sorted(required - set(site.keywords))
                if missing:
                    diagnostics.append(
                        self.diagnostic_at(
                            site.ref,
                            f"trace of lifecycle category '{category}' "
                            f"({field}) is missing detail key(s) "
                            f"{', '.join(missing)} promised by the "
                            f"'{taxonomy.variant}' taxonomy",
                        )
                    )
        return diagnostics

    # -- message-class side ----------------------------------------------

    def _check_message_flow(self, analysis: ProjectAnalysis) -> list[Diagnostic]:
        diagnostics: list[Diagnostic] = []
        dispatched = analysis.dispatched_classes()
        sent = analysis.sent_classes()
        flagged_defs: set[tuple[tuple[str, ...], str]] = set()
        for site in sorted(
            analysis.send_sites, key=lambda s: (s.ref.path, s.ref.line, s.ref.col)
        ):
            cls = site.message_class
            if cls is None:
                continue
            key = (_module_name(cls.module), cls.name)
            if not cls.frozen:
                diagnostics.append(
                    self.diagnostic_at(
                        site.ref,
                        f"undeclared message send: '{cls.name}' is not a "
                        "frozen dataclass; in-flight messages must be "
                        "immutable values (frozen-message atomicity)",
                    )
                )
            if (
                not cls.in_messages_module
                and analysis.package_has_messages_module(cls.package)
                and key not in flagged_defs
            ):
                flagged_defs.add(key)
                diagnostics.append(
                    self.diagnostic_at(
                        cls.ref,
                        f"undeclared message send: handlers send '{cls.name}' "
                        f"but it is not declared in repro/{cls.package}/"
                        "messages.py, where the package's wire protocol lives",
                    )
                )
            if key not in dispatched and key not in flagged_defs:
                flagged_defs.add(key)
                diagnostics.append(
                    self.diagnostic_at(
                        cls.ref,
                        f"message class '{cls.name}' is sent but no handler "
                        "dispatches on it (isinstance or type() is); the "
                        "message would be silently dropped on delivery",
                    )
                )
        for key, cls in sorted(analysis.message_classes.items()):
            if not (cls.in_messages_module and cls.frozen):
                continue
            if key in sent or key in dispatched:
                continue
            if key in analysis.referenced_classes:
                continue
            diagnostics.append(
                self.diagnostic_at(
                    cls.ref,
                    f"dead message declaration: '{cls.name}' in "
                    f"repro/{cls.package}/messages.py is never sent, "
                    "dispatched on, or otherwise referenced",
                )
            )
        return diagnostics
