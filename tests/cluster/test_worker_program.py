"""The worker program stays a self-contained standard-library program.

The coordinator spawns ``cluster/worker.py`` by file path, so that
starting a worker never imports the repro package: payloads stay opaque
JSON and the framing is inlined.  An import of anything else would make
every worker start-up pay for it, or fail outright where the package is
not importable.
"""

from __future__ import annotations

import ast
import sys

from repro.cluster.transport import _WORKER_PATH


def _imported_top_level_modules() -> set[str]:
    tree = ast.parse(_WORKER_PATH.read_text(encoding="utf-8"))
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module, "relative import in the worker"
            modules.add(node.module.partition(".")[0])
    return modules


def test_worker_imports_only_the_standard_library() -> None:
    modules = _imported_top_level_modules()
    assert "asyncio" in modules  # the walk found the imports
    assert "repro" not in modules
    assert modules <= sys.stdlib_module_names, modules - sys.stdlib_module_names
