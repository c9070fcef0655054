"""Cross-file project rules (RPX008-RPX010) against synthetic trees.

Each test assembles a minimal in-memory project — category registry,
variant registration, protocol package — and checks that the seeded
violation (and only it) is caught with the right rule id.  The final
class ties the static view to runtime: the AST-resolved taxonomies must
equal what ``repro.core.registry`` actually registers.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_project_sources, run_project
from repro.lint.engine import _load_file, iter_python_files
from repro.lint.project import ProjectAnalysis

REPO_ROOT = Path(__file__).parents[2]

CATEGORIES_PATH = "src/repro/sim/categories.py"
CATEGORIES_SRC = '''"""Demo category registry."""
from typing import Final

DEMO_INITIATED: Final = "demo.computation.initiated"
DEMO_PROBE_SENT: Final = "demo.probe.sent"
DEMO_PROBE_RECEIVED: Final = "demo.probe.received"
DEMO_DECLARED: Final = "demo.deadlock.declared"
'''

VARIANT_PATH = "src/repro/core/variants/demo.py"
VARIANT_SRC = '''"""Demo variant registration."""
from repro.core.registry import (
    DetectorVariant,
    MessageTaxonomy,
    VariantCapabilities,
    register,
)
from repro.sim import categories

VARIANT = register(
    DetectorVariant(
        name="demo",
        title="Demo detector",
        capabilities=VariantCapabilities(
            model="basic",
            kind="protocol",
            oracle_criterion="cycle of black edges",
            scenarios=("cycle",),
            taxonomy=MessageTaxonomy(
                initiated=categories.DEMO_INITIATED,
                probe_sent=categories.DEMO_PROBE_SENT,
                probe_received=categories.DEMO_PROBE_RECEIVED,
                declared=categories.DEMO_DECLARED,
                endpoint_keys=("source", "target"),
                edge_keys=("source", "target"),
                declared_by_key="vertex",
            ),
        ),
        build=object,
        conformance=object,
    )
)
'''

MESSAGES_PATH = "src/repro/basic/messages.py"
MESSAGES_SRC = '''"""Demo wire protocol."""
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Probe:
    source: int
    target: int
    tag: int
'''

VERTEX_PATH = "src/repro/basic/vertex.py"
VERTEX_SRC = '''"""Demo handler."""
from repro.basic.messages import Probe
from repro.sim import categories


class Vertex:
    def on_message(self, sender: int, message: Probe) -> None:
        if isinstance(message, Probe):
            self.ctx.trace(
                categories.DEMO_PROBE_RECEIVED,
                source=message.source,
                target=message.target,
                tag=message.tag,
            )
            self._forward(message)

    def _forward(self, probe: Probe) -> None:
        self.ctx.trace(
            categories.DEMO_PROBE_SENT, source=0, target=1, tag=probe.tag
        )
        self.send(1, probe)

    def start(self) -> None:
        self.ctx.trace(categories.DEMO_INITIATED, vertex=0, tag=1)
        self.send(1, Probe(source=0, target=1, tag=1))

    def declare(self) -> None:
        self.ctx.trace(categories.DEMO_DECLARED, vertex=0, tag=1)
'''

CLEAN_PROJECT = [
    (CATEGORIES_PATH, CATEGORIES_SRC),
    (VARIANT_PATH, VARIANT_SRC),
    (MESSAGES_PATH, MESSAGES_SRC),
    (VERTEX_PATH, VERTEX_SRC),
]


def project(**overrides: str) -> list[tuple[str, str]]:
    """The clean project with some files replaced (path -> new source)."""
    files = dict(CLEAN_PROJECT)
    files.update(overrides)
    return list(files.items())


def findings(files: list[tuple[str, str]]) -> list[tuple[str, str, str]]:
    return [
        (d.rule, d.path, d.message) for d in lint_project_sources(files)
    ]


class TestCleanProject:
    def test_no_findings(self) -> None:
        assert findings(CLEAN_PROJECT) == []


class TestTaxonomyConformance:
    def test_undeclared_send_of_non_frozen_class(self) -> None:
        vertex = VERTEX_SRC + (
            "\n\nfrom dataclasses import dataclass\n"
            "@dataclass\n"
            "class Rogue:\n"
            "    x: int\n"
            "    def fire(self) -> None:\n"
            "        self.send(1, Rogue(x=1))\n"
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008" and "undeclared message send" in msg and "frozen" in msg
            for rule, _, msg in got
        ), got

    def test_send_of_class_outside_messages_module(self) -> None:
        vertex = VERTEX_SRC + (
            "\n\nfrom dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Side:\n"
            "    x: int\n"
            "\n"
            "class Sender:\n"
            "    def on_message(self, sender: int, message: Side) -> None:\n"
            "        if isinstance(message, Side):\n"
            "            self.send(1, Side(x=1))\n"
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008" and "not declared in repro/basic/messages.py" in msg
            for rule, _, msg in got
        ), got

    def test_dead_taxonomy_entry(self) -> None:
        # remove the only trace of the declared category
        vertex = VERTEX_SRC.replace(
            "        self.ctx.trace(categories.DEMO_DECLARED, vertex=0, tag=1)\n",
            "        pass\n",
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008"
            and "dead taxonomy entry" in msg
            and "demo.deadlock.declared" in msg
            for rule, _, msg in got
        ), got

    def test_unresolvable_taxonomy_category(self) -> None:
        variant = VARIANT_SRC.replace(
            "declared=categories.DEMO_DECLARED,",
            "declared=categories.NO_SUCH_CATEGORY,",
        )
        got = findings(project(**{VARIANT_PATH: variant}))
        assert any(
            rule == "RPX008" and "does not resolve" in msg for rule, _, msg in got
        ), got

    def test_trace_missing_promised_detail_keys(self) -> None:
        vertex = VERTEX_SRC.replace(
            "            categories.DEMO_PROBE_SENT, source=0, target=1, tag=probe.tag\n",
            "            categories.DEMO_PROBE_SENT, source=0\n",
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008" and "missing detail key(s) tag, target" in msg
            for rule, _, msg in got
        ), got

    def test_dead_message_declaration(self) -> None:
        messages = MESSAGES_SRC + (
            "\n\n@dataclass(frozen=True, slots=True)\n"
            "class Unused:\n"
            "    x: int\n"
        )
        got = findings(project(**{MESSAGES_PATH: messages}))
        assert any(
            rule == "RPX008" and "dead message declaration" in msg and "Unused" in msg
            for rule, _, msg in got
        ), got

    def test_sent_but_never_dispatched(self) -> None:
        vertex = VERTEX_SRC.replace("if isinstance(message, Probe):\n", "if True:\n")
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008" and "no handler dispatches" in msg
            for rule, _, msg in got
        ), got

    def test_type_identity_test_is_a_dispatch(self) -> None:
        # The DDB controller tests its hottest message with ``type(m) is``.
        vertex = VERTEX_SRC.replace(
            "if isinstance(message, Probe):\n", "if type(message) is Probe:\n"
        )
        assert vertex != VERTEX_SRC
        assert findings(project(**{VERTEX_PATH: vertex})) == []
        # ... but a type test that is not an identity test dispatches nothing.
        vertex = VERTEX_SRC.replace(
            "if isinstance(message, Probe):\n", "if type(message) == Probe:\n"
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX008" and "no handler dispatches" in msg
            for rule, _, msg in got
        ), got


class TestMessageImmutability:
    def test_mutating_annotated_parameter(self) -> None:
        vertex = VERTEX_SRC.replace(
            "        self.send(1, probe)\n",
            "        probe.tag = 99\n        self.send(1, probe)\n",
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX009" and "field 'tag' of frozen message 'Probe'" in msg
            for rule, _, msg in got
        ), got

    def test_mutating_stored_reference(self) -> None:
        vertex = VERTEX_SRC + (
            "\n\nclass Holder:\n"
            "    def __init__(self) -> None:\n"
            "        self.last = Probe(source=0, target=1, tag=1)\n"
            "    def poke(self) -> None:\n"
            "        self.last.tag = 7\n"
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX009" and "'Probe'" in msg for rule, _, msg in got
        ), got

    def test_object_setattr_bypass(self) -> None:
        vertex = VERTEX_SRC.replace(
            "        self.send(1, probe)\n",
            '        object.__setattr__(probe, "tag", 3)\n        self.send(1, probe)\n',
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX009" and "object.__setattr__" in msg for rule, _, msg in got
        ), got

    def test_augmented_assignment(self) -> None:
        vertex = VERTEX_SRC.replace(
            "        self.send(1, probe)\n",
            "        probe.tag += 1\n        self.send(1, probe)\n",
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX009" and "augmented assignment" in msg for rule, _, msg in got
        ), got

    def test_dataclasses_replace_is_fine(self) -> None:
        vertex = VERTEX_SRC.replace(
            "        self.send(1, probe)\n",
            "        import dataclasses\n"
            "        probe = dataclasses.replace(probe, tag=probe.tag)\n"
            "        self.send(1, probe)\n",
        )
        assert findings(project(**{VERTEX_PATH: vertex})) == []


class TestLiveBackendSafety:
    def test_shared_module_state(self) -> None:
        vertex = VERTEX_SRC + (
            "\n\nSEEN = {}\n"
            "\n"
            "class Tracker:\n"
            "    def on_message(self, sender: int, message: Probe) -> None:\n"
            "        SEEN[sender] = message\n"
        )
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX010" and "module-level mutable dict 'SEEN'" in msg
            for rule, _, msg in got
        ), got

    def test_unread_module_constant_is_not_flagged(self) -> None:
        vertex = VERTEX_SRC + "\n\nSCRATCH = {}\n"
        assert findings(project(**{VERTEX_PATH: vertex})) == []

    def test_wall_clock_reachable_through_helper(self) -> None:
        vertex = VERTEX_SRC.replace(
            "            self._forward(message)\n",
            "            self._forward(message)\n            self._nap()\n",
        ) + (
            "\n    def _nap(self) -> None:\n"
            "        import time\n"
            "        time.sleep(0.1)\n"
        )
        # module-level import form (the function-local one above is for
        # layout only; use a module import so aliases resolve)
        vertex = "import time\n" + vertex.replace("        import time\n", "")
        got = findings(project(**{VERTEX_PATH: vertex}))
        assert any(
            rule == "RPX010"
            and "time.sleep()" in msg
            and "on_message" in msg
            and "_nap" in msg
            for rule, _, msg in got
        ), got

    def test_suppression_comment_silences_project_rule(self) -> None:
        vertex = VERTEX_SRC + (
            "\n\nSEEN = {}  # repro-lint: disable=RPX010\n"
            "\n"
            "class Tracker:\n"
            "    def on_message(self, sender: int, message: Probe) -> None:\n"
            "        SEEN[sender] = message\n"
        )
        assert findings(project(**{VERTEX_PATH: vertex})) == []


class TestAnchorGating:
    def test_project_pass_skipped_without_category_registry(
        self, tmp_path: Path
    ) -> None:
        target = tmp_path / "src" / "repro" / "basic" / "vertex.py"
        target.parent.mkdir(parents=True)
        target.write_text(VERTEX_SRC)
        run = run_project([tmp_path / "src"])
        assert not run.project_pass_ran
        assert run.diagnostics == []

    def test_project_pass_runs_with_category_registry(
        self, tmp_path: Path
    ) -> None:
        for logical, source in CLEAN_PROJECT:
            target = tmp_path / logical
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        run = run_project([tmp_path / "src"])
        assert run.project_pass_ran
        assert run.diagnostics == []


class TestStaticViewMatchesRuntime:
    """The AST-resolved taxonomies equal what the registry registers."""

    def _real_analysis(self) -> ProjectAnalysis:
        contexts = []
        for path in iter_python_files([REPO_ROOT / "src"]):
            ctx, _ = _load_file(path)
            if ctx is not None:
                contexts.append(ctx)
        return ProjectAnalysis.from_contexts(contexts)

    def test_taxonomies_round_trip(self) -> None:
        from repro.core.registry import all_variants

        analysis = self._real_analysis()
        static = {info.variant: info for info in analysis.taxonomies}
        checked = 0
        for variant in all_variants():
            taxonomy = variant.capabilities.taxonomy
            if taxonomy is None:
                assert variant.name not in static
                continue
            info = static[variant.name]
            assert info.model == variant.capabilities.model
            assert info.categories == taxonomy.lifecycle_categories()
            assert info.endpoint_keys == taxonomy.endpoint_keys
            assert info.edge_keys == taxonomy.edge_keys
            assert info.declared_by_key == taxonomy.declared_by_key
            checked += 1
        assert checked >= 2, "expected at least the basic and ddb taxonomies"

    def test_every_send_site_resolves_on_the_real_tree(self) -> None:
        """No protocol send is invisible to the analyzer (conservatism cap)."""
        analysis = self._real_analysis()
        unresolved = [
            (site.ref.path, site.ref.line)
            for site in analysis.send_sites
            if site.message_class is None
        ]
        assert unresolved == [], unresolved
        assert len(analysis.send_sites) >= 15

    def test_every_trace_site_resolves_on_the_real_tree(self) -> None:
        analysis = self._real_analysis()
        unresolved = [
            (site.ref.path, site.ref.line)
            for site in analysis.trace_sites
            if site.category is None
        ]
        assert unresolved == [], unresolved
