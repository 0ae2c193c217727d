"""utrees has no runtime dependencies: its modules import only the standard
library and utrees itself (networkx and hypothesis are for tests)."""

import ast
import sys
from pathlib import Path

import utrees


def test_src_imports_only_stdlib_and_utrees():
    modules = sorted(Path(utrees.__file__).parent.glob("*.py"))
    assert len(modules) >= 11
    bad = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside utrees
            for name in names:
                top = name.split(".")[0]
                if top != "utrees" and top not in sys.stdlib_module_names:
                    bad.append(f"{path.name}:{node.lineno} imports {name}")
    assert bad == []
