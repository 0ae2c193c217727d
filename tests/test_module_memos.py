"""utrees keeps no memo at module level: no lru_cache or cache decorator, and
no module-level dict, list or set that code mutates.  Work shared between
calls lives on per-tree objects (SideIndex, ContainmentTable), so it is
freed with them."""

import ast
from pathlib import Path

import utrees

ALLOWED: set[str] = set()
MUTATORS = {
    "append", "add", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "setdefault", "update", "__setitem__", "__delitem__",
}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_container(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _decorator_name(node) in {
        "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
    }


def _module_containers(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and _is_container(node.value):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _mutated(tree: ast.Module, names: set[str]) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name):
                out.add(t.value.id)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and isinstance(node.func.value, ast.Name)
        ):
            out.add(node.func.value.id)
        if isinstance(node, ast.Global):
            out |= set(node.names)
    return out & names


def test_src_has_no_module_memos():
    modules = sorted(Path(utrees.__file__).parent.glob("*.py"))
    assert len(modules) >= 11
    bad = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    if _decorator_name(dec) in {"lru_cache", "cache"}:
                        bad.append(f"{path.name}:{node.lineno} {node.name} is memoised")
        for name in sorted(_mutated(tree, _module_containers(tree)) - ALLOWED):
            bad.append(f"{path.name}: module-level {name} is mutated")
    assert bad == []


def test_guard_catches_caches_and_mutated_containers():
    src = (
        "from functools import lru_cache, cache\n"
        "import functools\n"
        "_MEMO = {}\n"
        "_SEEN: set = set()\n"
        "_LIST = []\n"
        "CONSTANT = [1, 2]\n"
        "@lru_cache(maxsize=None)\n"
        "def f(x): _MEMO[x] = 1\n"
        "@functools.cache\n"
        "def g(x): _SEEN.add(x)\n"
        "def h(x):\n"
        "    global _LIST\n"
        "    _LIST += [x]\n"
        "    return CONSTANT[0]\n"
    )
    tree = ast.parse(src)
    names = _module_containers(tree)
    assert names == {"_MEMO", "_SEEN", "_LIST", "CONSTANT"}
    assert _mutated(tree, names) == {"_MEMO", "_SEEN", "_LIST"}
    decorated = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(_decorator_name(d) in {"lru_cache", "cache"} for d in node.decorator_list)
    ]
    assert decorated == ["f", "g"]
