"""Project-wide analysis core for the cross-file rules (RPX008-RPX010).

Per-file rules see one AST at a time; the protocol *contract*, however,
lives across modules: the message dataclasses a handler constructs and
sends sit in ``messages.py``, the trace categories it records sit in
``repro/sim/categories.py``, and the taxonomy a variant declares sits in
its registration module under ``repro/core/variants/``.  This module
parses every collected file once and builds:

* a **symbol table** of the protocol packages (classes, functions,
  per-module import aliases, frozen message dataclasses);
* a **send/receive graph**: which message classes each handler
  constructs and sends (``self.send(target, Probe(...))``, or a name
  whose type is pinned by an annotation or a local construction), which
  classes ``on_message`` dispatches on (``isinstance(message, Cls)`` or
  ``type(message) is Cls``),
  and which trace categories each package records with which detail
  keys;
* the **statically resolved taxonomies**: every ``MessageTaxonomy(...)``
  constructed inside a ``DetectorVariant`` registration, with its
  ``categories.X`` references resolved against the parsed category
  registry — no protocol module is ever imported;
* a conservative **call graph** rooted at message handlers, used to
  decide wall-clock reachability (RPX010).

The analysis is deliberately resolution-conservative: a send whose
message expression cannot be typed statically is skipped, never guessed.
Project rules therefore under-approximate, which is the right polarity
for a CI gate.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.core.registry import MODEL_PACKAGES, VARIANT_REGISTRATION_PACKAGE
from repro.lint.context import FileContext, logical_parts

#: ``time`` module functions that read the host's clocks (or block on
#: them) and ``datetime`` constructors that do the same.  This is the
#: canonical home (RPX002 in :mod:`repro.lint.rules.determinism` imports
#: them from here): the rules package imports this module, so the import
#: must not point the other way.
WALL_CLOCK_TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
        "localtime",
        "gmtime",
    }
)
WALL_CLOCK_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

#: packages whose handler code the message-flow analysis covers: the
#: three protocol models plus the overlay detectors, which ride the same
#: FIFO channels (marker algorithms require it) and so speak in-flight
#: messages of their own.
FLOW_PACKAGES: tuple[str, ...] = ("basic", "ddb", "ormodel", "baselines")

#: the parsed file the category constants are resolved from; its
#: presence in a run is the anchor condition for running project rules.
CATEGORIES_MODULE: tuple[str, ...] = ("repro", "sim", "categories.py")

#: module-level calls whose result is shared mutable state (RPX010).
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


@dataclass(frozen=True)
class SourceRef:
    """Where something was found: display path + 1-based line/col."""

    path: str
    line: int
    col: int


def _ref(ctx: FileContext, node: ast.AST) -> SourceRef:
    return SourceRef(
        path=ctx.display_path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
    )


@dataclass(frozen=True)
class MessageClass:
    """One in-flight message dataclass declared in a protocol package."""

    name: str
    package: str
    module: tuple[str, ...]
    ref: SourceRef
    frozen: bool
    is_dataclass: bool
    in_messages_module: bool

    @property
    def qualname(self) -> str:
        return f"{'.'.join(self.module)[: -len('.py')]}.{self.name}"


@dataclass(frozen=True)
class SendSite:
    """One ``<expr>.send(destination, message)`` call in a protocol package."""

    package: str
    ref: SourceRef
    #: resolved message class, or None when the expression is untypable
    message_class: MessageClass | None
    #: the syntactic class name the resolution started from, if any
    class_name: str | None


@dataclass(frozen=True)
class DispatchSite:
    """One ``isinstance(<expr>, Cls)`` or ``type(<expr>) is Cls`` dispatch
    in a protocol package."""

    package: str
    ref: SourceRef
    message_class: MessageClass


@dataclass(frozen=True)
class TraceSite:
    """One ``ctx.trace(<category>, key=...)`` call in a protocol package."""

    package: str
    ref: SourceRef
    #: resolved category string, or None when not statically resolvable
    category: str | None
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class TaxonomyInfo:
    """A ``MessageTaxonomy`` resolved from a registration module's AST."""

    variant: str
    model: str
    ref: SourceRef
    #: lifecycle field -> resolved category value (None: unresolvable)
    categories: dict[str, str | None]
    #: lifecycle field -> source text of the reference (for messages)
    raw: dict[str, str]
    endpoint_keys: tuple[str, ...]
    edge_keys: tuple[str, ...]
    declared_by_key: str | None


@dataclass
class FunctionInfo:
    """One function/method: call edges + direct wall-clock primitives."""

    qualname: str
    name: str
    module: tuple[str, ...]
    package: str
    ref: SourceRef
    class_name: str | None
    #: resolved project-internal call targets (qualnames)
    edges: set[str] = field(default_factory=set)
    #: direct wall-clock primitive calls: (description, line)
    clock_calls: list[tuple[str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class ModuleState:
    """A module-level mutable binding in a protocol package (RPX010)."""

    package: str
    module: tuple[str, ...]
    name: str
    ref: SourceRef
    kind: str


def _attribute_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when the chain has calls etc."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        chain.reverse()
        return chain
    return None


def _annotation_name(node: ast.expr | None) -> str | None:
    """The terminal class name of an annotation, if it is a plain name."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: take the last dotted component
        return node.value.split("[")[0].split(".")[-1].strip() or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _module_name(parts: tuple[str, ...]) -> tuple[str, ...]:
    """("repro", "basic", "vertex.py") -> ("repro", "basic", "vertex")."""
    if parts and parts[-1].endswith(".py"):
        head = parts[:-1]
        stem = parts[-1][:-3]
        return head if stem == "__init__" else (*head, stem)
    return parts


class _ModuleScan(ast.NodeVisitor):
    """First pass over one module: imports, classes, top-level bindings."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        #: local name -> absolute dotted module it refers to
        self.module_aliases: dict[str, tuple[str, ...]] = {}
        #: local name -> (source module parts, original name)
        self.imported_names: dict[str, tuple[tuple[str, ...], str]] = {}
        #: class name -> ClassDef
        self.classes: dict[str, ast.ClassDef] = {}
        #: top-level function name -> FunctionDef
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self._scan()

    def _scan(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = tuple(alias.name.split("."))
                    self.module_aliases[alias.asname or parts[0]] = (
                        parts if alias.asname else parts[:1]
                    )
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_from(node)
                if source is None:
                    continue
                for alias in node.names:
                    self.imported_names[alias.asname or alias.name] = (source, alias.name)
        for node in self.ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node

    def _resolve_from(self, node: ast.ImportFrom) -> tuple[str, ...] | None:
        if node.level == 0:
            return tuple(node.module.split(".")) if node.module else None
        base = list(_module_name(self.ctx.parts))
        drop = node.level
        base = base[:-drop] if drop <= len(base) else []
        if node.module:
            base.extend(node.module.split("."))
        return tuple(base)


def _is_dataclass_decorator(node: ast.expr) -> tuple[bool, bool]:
    """(is_dataclass, frozen) for one decorator node."""

    def is_ref(expr: ast.expr) -> bool:
        return (isinstance(expr, ast.Name) and expr.id == "dataclass") or (
            isinstance(expr, ast.Attribute) and expr.attr == "dataclass"
        )

    if is_ref(node):
        return True, False
    if isinstance(node, ast.Call) and is_ref(node.func):
        frozen = next(
            (kw.value for kw in node.keywords if kw.arg == "frozen"), None
        )
        return True, isinstance(frozen, ast.Constant) and frozen.value is True
    return False, False


class ProjectAnalysis:
    """Everything the project rules (RPX008-RPX010) inspect.

    Build one from already-parsed :class:`FileContext` objects
    (:meth:`from_contexts`) or straight from ``(logical_path, source)``
    pairs (:meth:`from_sources`, the fixture-test entry point).
    """

    def __init__(self, contexts: list[FileContext]) -> None:
        self.contexts = contexts
        self.modules: dict[tuple[str, ...], FileContext] = {
            ctx.parts: ctx for ctx in contexts
        }
        self._scans: dict[tuple[str, ...], _ModuleScan] = {
            parts: _ModuleScan(ctx) for parts, ctx in self.modules.items()
        }
        #: category constant name -> value (from repro/sim/categories.py)
        self.category_values: dict[str, str] = {}
        #: message class registry: (module, name) -> MessageClass
        self.message_classes: dict[tuple[tuple[str, ...], str], MessageClass] = {}
        self.send_sites: list[SendSite] = []
        self.dispatch_sites: list[DispatchSite] = []
        self.trace_sites: list[TraceSite] = []
        self.taxonomies: list[TaxonomyInfo] = []
        #: message classes referenced (constructed / named) outside their
        #: defining module, keyed like message_classes
        self.referenced_classes: set[tuple[tuple[str, ...], str]] = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.module_state: list[ModuleState] = []
        #: module-level mutable names read from inside some function body
        self.state_reads: set[tuple[tuple[str, ...], str]] = set()

        self._collect_categories()
        self._collect_message_classes()
        self._collect_flow()
        self._collect_taxonomies()
        self._collect_call_graph()
        self._collect_module_state()

    # -- construction ----------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: list[FileContext]) -> "ProjectAnalysis":
        return cls(contexts)

    @classmethod
    def from_sources(
        cls, files: list[tuple[str, str]]
    ) -> "ProjectAnalysis":
        """Build from ``(logical_path, source)`` pairs (fixture tests)."""
        contexts: list[FileContext] = []
        for logical, source in files:
            tree = ast.parse(source, filename=logical)
            contexts.append(
                FileContext(
                    display_path=logical,
                    parts=logical_parts(logical),
                    tree=tree,
                    lines=source.splitlines(),
                )
            )
        return cls(contexts)

    @property
    def has_registry_view(self) -> bool:
        """Whether the category registry was part of the analyzed set.

        Project rules only run when it is: without the parsed registry
        the taxonomy and flow checks would report spurious findings on
        partial file sets (single-file invocations, fixtures).
        """
        return bool(self.category_values) or CATEGORIES_MODULE in self.modules

    # -- helpers ---------------------------------------------------------

    def _package_of(self, parts: tuple[str, ...]) -> str | None:
        if len(parts) >= 2 and parts[0] == "repro" and parts[1] in FLOW_PACKAGES:
            return parts[1]
        return None

    def _resolve_class(
        self, parts: tuple[str, ...], name: str
    ) -> MessageClass | None:
        """Resolve a class *name* used in module ``parts`` to a message class."""
        module = _module_name(parts)
        found = self.message_classes.get((module, name))
        if found is not None:
            return found
        scan = self._scans.get(parts)
        if scan is None:
            return None
        imported = scan.imported_names.get(name)
        if imported is not None:
            source_module, original = imported
            return self.message_classes.get((source_module, original))
        return None

    # -- pass 1: category registry --------------------------------------

    def _collect_categories(self) -> None:
        ctx = self.modules.get(CATEGORIES_MODULE)
        if ctx is None:
            return
        for node in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    self.category_values[target.id] = value.value

    # -- pass 2: message classes ----------------------------------------

    def _collect_message_classes(self) -> None:
        for parts, ctx in self.modules.items():
            package = self._package_of(parts)
            if package is None:
                continue
            module = _module_name(parts)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                is_dc = frozen = False
                for decorator in node.decorator_list:
                    dc, fr = _is_dataclass_decorator(decorator)
                    is_dc, frozen = is_dc or dc, frozen or fr
                if not is_dc:
                    continue
                self.message_classes[(module, node.name)] = MessageClass(
                    name=node.name,
                    package=package,
                    module=parts,
                    ref=_ref(ctx, node),
                    frozen=frozen,
                    is_dataclass=is_dc,
                    in_messages_module=ctx.filename == "messages.py",
                )

    def package_has_messages_module(self, package: str) -> bool:
        return ("repro", package, "messages.py") in self.modules

    # -- pass 3: send / dispatch / trace / reference sites ---------------

    def _message_expr_class(
        self,
        parts: tuple[str, ...],
        expr: ast.expr,
        local_types: dict[str, str],
    ) -> tuple[MessageClass | None, str | None]:
        """(resolved class, syntactic class name) of a message expression."""
        if isinstance(expr, ast.Call):
            name = _annotation_name(expr.func)
            if name is not None:
                return self._resolve_class(parts, name), name
            return None, None
        if isinstance(expr, ast.Name):
            name = local_types.get(expr.id)
            if name is not None:
                return self._resolve_class(parts, name), name
        return None, None

    def _local_types(
        self, parts: tuple[str, ...], fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Local name -> class name, from annotations and constructions."""
        types: dict[str, str] = {}
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        for arg in args:
            name = _annotation_name(arg.annotation)
            if name is not None:
                types[arg.arg] = name
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                    name = _annotation_name(node.value.func)
                    if name is not None and self._resolve_class(parts, name):
                        types[target.id] = name
        return types

    def _collect_flow(self) -> None:
        for parts, ctx in self.modules.items():
            package = self._package_of(parts)
            scan = self._scans[parts]
            # reference tracking runs over *all* modules so a message
            # class used only from a harness consumer still counts.
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    resolved = self._resolve_class(parts, node.id)
                    if resolved is not None and resolved.module != parts:
                        self.referenced_classes.add(
                            (_module_name(resolved.module), resolved.name)
                        )
            if package is None:
                continue
            functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(node)
            for fn in functions:
                local_types = self._local_types(parts, fn)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    chain = _attribute_chain(node.func)
                    if chain is None:
                        continue
                    if chain[-1] == "send" and len(chain) >= 2 and len(node.args) == 2:
                        resolved, name = self._message_expr_class(
                            parts, node.args[1], local_types
                        )
                        self.send_sites.append(
                            SendSite(
                                package=package,
                                ref=_ref(ctx, node),
                                message_class=resolved,
                                class_name=name,
                            )
                        )
                    elif chain[-1] == "trace" and node.args:
                        self.trace_sites.append(
                            TraceSite(
                                package=package,
                                ref=_ref(ctx, node),
                                category=self._category_of(scan, node.args[0]),
                                keywords=tuple(
                                    kw.arg for kw in node.keywords if kw.arg is not None
                                ),
                            )
                        )
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    tested = node.args[1]
                elif (
                    isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"
                    and isinstance(node.ops[0], ast.Is)
                ):
                    tested = node.comparators[0]
                else:
                    continue
                for candidate in self._isinstance_classes(tested):
                    resolved = self._resolve_class(parts, candidate)
                    if resolved is not None:
                        self.dispatch_sites.append(
                            DispatchSite(
                                package=package,
                                ref=_ref(ctx, node),
                                message_class=resolved,
                            )
                        )

    @staticmethod
    def _isinstance_classes(node: ast.expr) -> list[str]:
        exprs = list(node.elts) if isinstance(node, ast.Tuple) else [node]
        names: list[str] = []
        for expr in exprs:
            name = _annotation_name(expr)
            if name is not None:
                names.append(name)
        return names

    def _category_of(self, scan: _ModuleScan, node: ast.expr) -> str | None:
        """Resolve a trace call's first argument to a category string."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return self.category_values.get(node.attr)
        if isinstance(node, ast.Name):
            imported = scan.imported_names.get(node.id)
            if imported is not None:
                return self.category_values.get(imported[1])
        return None

    # -- pass 4: registered taxonomies, resolved statically ---------------

    def _collect_taxonomies(self) -> None:
        prefix = VARIANT_REGISTRATION_PACKAGE
        for parts, ctx in self.modules.items():
            if parts[: len(prefix)] != prefix:
                continue
            scan = self._scans[parts]
            for node in ast.walk(ctx.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _annotation_name(node.func) == "DetectorVariant"
                ):
                    continue
                info = self._taxonomy_from_variant(ctx, scan, node)
                if info is not None:
                    self.taxonomies.append(info)

    def _taxonomy_from_variant(
        self, ctx: FileContext, scan: _ModuleScan, node: ast.Call
    ) -> TaxonomyInfo | None:
        name = model = None
        taxonomy_call: ast.Call | None = None
        for kw in node.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                name = str(kw.value.value)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                callee = _annotation_name(inner.func)
                if callee == "VariantCapabilities":
                    for kw in inner.keywords:
                        if kw.arg == "model" and isinstance(kw.value, ast.Constant):
                            model = str(kw.value.value)
                elif callee == "MessageTaxonomy":
                    taxonomy_call = inner
        if name is None or model is None or taxonomy_call is None:
            return None
        categories: dict[str, str | None] = {}
        raw: dict[str, str] = {}
        endpoint_keys: tuple[str, ...] = ()
        edge_keys: tuple[str, ...] = ()
        declared_by_key: str | None = None
        for kw in taxonomy_call.keywords:
            if kw.arg in ("initiated", "probe_sent", "probe_received", "declared"):
                categories[kw.arg] = self._category_of(scan, kw.value)
                raw[kw.arg] = ast.unparse(kw.value)
            elif kw.arg == "endpoint_keys":
                endpoint_keys = self._string_tuple(kw.value)
            elif kw.arg == "edge_keys":
                edge_keys = self._string_tuple(kw.value)
            elif kw.arg == "declared_by_key" and isinstance(kw.value, ast.Constant):
                declared_by_key = str(kw.value.value)
        return TaxonomyInfo(
            variant=name,
            model=model,
            ref=_ref(ctx, taxonomy_call),
            categories=categories,
            raw=raw,
            endpoint_keys=endpoint_keys,
            edge_keys=edge_keys,
            declared_by_key=declared_by_key,
        )

    @staticmethod
    def _string_tuple(node: ast.expr) -> tuple[str, ...]:
        if isinstance(node, (ast.Tuple, ast.List)):
            values: list[str] = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    values.append(elt.value)
            return tuple(values)
        return ()

    def package_for_model(self, model: str) -> str | None:
        """Protocol package for a capability model (registry hook)."""
        package = MODEL_PACKAGES.get(model)
        if package is None:
            return None
        if any(self._package_of(parts) == package for parts in self.modules):
            return package
        return None

    def package_trace_sites(self, package: str) -> list[TraceSite]:
        return [site for site in self.trace_sites if site.package == package]

    def package_send_sites(self, package: str) -> list[SendSite]:
        return [site for site in self.send_sites if site.package == package]

    def dispatched_classes(self) -> set[tuple[tuple[str, ...], str]]:
        return {
            (_module_name(site.message_class.module), site.message_class.name)
            for site in self.dispatch_sites
        }

    def sent_classes(self) -> set[tuple[tuple[str, ...], str]]:
        return {
            (_module_name(site.message_class.module), site.message_class.name)
            for site in self.send_sites
            if site.message_class is not None
        }

    # -- pass 5: call graph ----------------------------------------------

    def _collect_call_graph(self) -> None:
        # 5a: register every function/method in a flow package
        for parts, ctx in self.modules.items():
            package = self._package_of(parts)
            if package is None:
                continue
            module = _module_name(parts)
            module_dotted = ".".join(module)
            scan = self._scans[parts]
            for cls_name, cls in scan.classes.items():
                for item in cls.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{module_dotted}.{cls_name}.{item.name}"
                        self.functions[qualname] = FunctionInfo(
                            qualname=qualname,
                            name=item.name,
                            module=parts,
                            package=package,
                            ref=_ref(ctx, item),
                            class_name=cls_name,
                        )
            for fn_name, fn in scan.functions.items():
                qualname = f"{module_dotted}.{fn_name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    name=fn_name,
                    module=parts,
                    package=package,
                    ref=_ref(ctx, fn),
                    class_name=None,
                )
        # 5b: resolve edges + direct clock primitives
        for parts, ctx in self.modules.items():
            if self._package_of(parts) is None:
                continue
            scan = self._scans[parts]
            attr_classes = self._instance_attr_classes(scan)
            for cls_name, cls in scan.classes.items():
                for item in cls.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._function_edges(
                            parts, scan, cls_name, attr_classes.get(cls_name, {}), item
                        )
            for fn in scan.functions.values():
                self._function_edges(parts, scan, None, {}, fn)

    def _instance_attr_classes(
        self, scan: _ModuleScan
    ) -> dict[str, dict[str, str]]:
        """class -> {self-attribute -> class name} from ``self.x = Cls(...)``."""
        result: dict[str, dict[str, str]] = {}
        for cls_name, cls in scan.classes.items():
            attrs: dict[str, str] = {}
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)
                ):
                    continue
                name = _annotation_name(node.value.func)
                if name is not None:
                    attrs[target.attr] = name
            result[cls_name] = attrs
        return result

    def _lookup_method(
        self, parts: tuple[str, ...], cls_name: str, method: str, depth: int = 0
    ) -> str | None:
        """Qualname of ``cls_name.method``, walking same-project bases."""
        if depth > 8:
            return None
        scan = self._scans.get(parts)
        if scan is None or cls_name not in scan.classes:
            # the class may live in another module: follow the import
            if scan is not None:
                imported = scan.imported_names.get(cls_name)
                if imported is not None:
                    source_module, original = imported
                    source_parts = self._parts_for_module(source_module)
                    if source_parts is not None and source_parts != parts:
                        return self._lookup_method(
                            source_parts, original, method, depth + 1
                        )
            return None
        cls = scan.classes[cls_name]
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == method
            ):
                return f"{'.'.join(_module_name(parts))}.{cls_name}.{method}"
        for base in cls.bases:
            base_name = _annotation_name(base)
            if base_name is not None:
                found = self._lookup_method(parts, base_name, method, depth + 1)
                if found is not None:
                    return found
        return None

    def _parts_for_module(self, module: tuple[str, ...]) -> tuple[str, ...] | None:
        as_file = (*module[:-1], f"{module[-1]}.py")
        if as_file in self.modules:
            return as_file
        as_package = (*module, "__init__.py")
        if as_package in self.modules:
            return as_package
        return None

    def _function_edges(
        self,
        parts: tuple[str, ...],
        scan: _ModuleScan,
        cls_name: str | None,
        attr_classes: dict[str, str],
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        module_dotted = ".".join(_module_name(parts))
        qualname = (
            f"{module_dotted}.{cls_name}.{fn.name}"
            if cls_name is not None
            else f"{module_dotted}.{fn.name}"
        )
        info = self.functions.get(qualname)
        if info is None:
            return
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if chain is None:
                continue
            self._note_clock_call(scan, info, node, chain)
            target: str | None = None
            if len(chain) == 1:
                name = chain[0]
                if name in scan.functions:
                    target = f"{module_dotted}.{name}"
                else:
                    imported = scan.imported_names.get(name)
                    if imported is not None:
                        source_module, original = imported
                        source_parts = self._parts_for_module(source_module)
                        if source_parts is not None:
                            candidate = f"{'.'.join(_module_name(source_parts))}.{original}"
                            if candidate in self.functions:
                                target = candidate
            elif chain[0] == "self" and cls_name is not None:
                if len(chain) == 2:
                    target = self._lookup_method(parts, cls_name, chain[1])
                elif len(chain) == 3 and chain[1] in attr_classes:
                    target = self._lookup_method(
                        parts, attr_classes[chain[1]], chain[2]
                    )
            elif chain[0] in scan.module_aliases and len(chain) == 2:
                alias_parts = self._parts_for_module(
                    scan.module_aliases[chain[0]]
                )
                if alias_parts is not None:
                    candidate = f"{'.'.join(_module_name(alias_parts))}.{chain[1]}"
                    if candidate in self.functions:
                        target = candidate
            if target is not None and target != qualname:
                info.edges.add(target)
            # timer callbacks referenced (not called) become edges too
            if chain[-1] == "set_timer":
                for arg in node.args:
                    arg_chain = _attribute_chain(arg)
                    if (
                        arg_chain is not None
                        and len(arg_chain) == 2
                        and arg_chain[0] == "self"
                        and cls_name is not None
                    ):
                        callback = self._lookup_method(parts, cls_name, arg_chain[1])
                        if callback is not None:
                            info.edges.add(callback)

    def _note_clock_call(
        self,
        scan: _ModuleScan,
        info: FunctionInfo,
        node: ast.Call,
        chain: list[str],
    ) -> None:
        root, rest = chain[0], chain[1:]
        root_module = scan.module_aliases.get(root)
        if (
            root_module is not None
            and root_module[0] == "time"
            and rest
            and rest[-1] in WALL_CLOCK_TIME_FUNCTIONS
        ):
            info.clock_calls.append((f"time.{rest[-1]}()", node.lineno))
            return
        if (
            root_module is not None
            and root_module[0] == "datetime"
            and len(rest) == 2
            and rest[0] in {"datetime", "date"}
            and rest[1] in WALL_CLOCK_DATETIME_METHODS
        ):
            info.clock_calls.append((f"datetime.{rest[0]}.{rest[1]}()", node.lineno))
            return
        imported = scan.imported_names.get(root)
        if imported is not None and not rest:
            source_module, original = imported
            if source_module == ("time",) and original in WALL_CLOCK_TIME_FUNCTIONS:
                info.clock_calls.append((f"time.{original}()", node.lineno))
            elif (
                source_module == ("datetime",)
                and original in {"datetime", "date"}
            ):
                pass  # bare datetime(...) constructor is explicit, not a clock read
        elif imported is not None and len(rest) == 1:
            source_module, original = imported
            if (
                source_module == ("datetime",)
                and original in {"datetime", "date"}
                and rest[0] in WALL_CLOCK_DATETIME_METHODS
            ):
                info.clock_calls.append(
                    (f"datetime.{original}.{rest[0]}()", node.lineno)
                )

    #: handler-name convention shared with RPX006
    _HANDLER_PREFIXES = ("on_", "_on_")

    def handler_entry_points(self) -> list[FunctionInfo]:
        """Message-handler entry points of the flow packages."""
        entries = []
        for info in self.functions.values():
            if info.name == "on_message" or info.name.startswith(self._HANDLER_PREFIXES):
                entries.append(info)
        return sorted(entries, key=lambda info: (info.ref.path, info.ref.line))

    def clock_reachability(
        self, entry: FunctionInfo
    ) -> list[tuple[FunctionInfo, tuple[str, int], tuple[str, ...]]]:
        """Wall-clock primitives reachable from ``entry``.

        Returns ``(function, (primitive, line), path)`` triples where
        ``path`` is the qualname chain from the entry to the function.
        BFS over the resolved call edges; first (shortest) path wins.
        """
        found: list[tuple[FunctionInfo, tuple[str, int], tuple[str, ...]]] = []
        seen = {entry.qualname}
        queue: deque[tuple[str, tuple[str, ...]]] = deque(
            [(entry.qualname, (entry.qualname,))]
        )
        while queue:
            qualname, path = queue.popleft()
            info = self.functions.get(qualname)
            if info is None:
                continue
            for primitive in info.clock_calls:
                found.append((info, primitive, path))
            for target in sorted(info.edges):
                if target not in seen:
                    seen.add(target)
                    queue.append((target, (*path, target)))
        return found

    # -- pass 6: module-level mutable state --------------------------------

    def _collect_module_state(self) -> None:
        candidates: dict[tuple[tuple[str, ...], str], ModuleState] = {}
        for parts, ctx in self.modules.items():
            package = self._package_of(parts)
            if package is None:
                continue
            module = _module_name(parts)
            for node in ctx.tree.body:
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                kind = self._mutable_kind(value)
                if kind is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and not target.id.startswith("__")
                    ):
                        candidates[(module, target.id)] = ModuleState(
                            package=package,
                            module=parts,
                            name=target.id,
                            ref=_ref(ctx, node),
                            kind=kind,
                        )
        if not candidates:
            return
        # a binding only counts as *shared* state once some function body
        # reads it — in its own module or through an import elsewhere.
        for parts, ctx in self.modules.items():
            scan = self._scans[parts]
            module = _module_name(parts)
            for fn_node in ast.walk(ctx.tree):
                if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn_node):
                    if not (
                        isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    ):
                        continue
                    if (module, node.id) in candidates:
                        self.state_reads.add((module, node.id))
                    imported = scan.imported_names.get(node.id)
                    if imported is not None and imported in candidates:
                        self.state_reads.add(imported)
        self.module_state = [
            state
            for key, state in sorted(candidates.items())
            if key in self.state_reads
        ]

    @staticmethod
    def _mutable_kind(node: ast.expr) -> str | None:
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = _annotation_name(node.func)
            if name in MUTABLE_FACTORIES:
                return name
        return None
