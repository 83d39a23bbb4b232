"""Every module-level function and class under src/floortag is used somewhere.

A use is a reference outside the definition's own body: a name, an
attribute or an imported name in any module under src/, tests/ or
perfbench/. References in another module that defines the same name at its
top level are to that module's own definition and do not count. A
definition nothing uses is dead code; delete it with its last caller.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def references(tree: ast.AST) -> Counter:
    """How often each name is referenced in a tree: names, attributes and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def top_level_definitions(tree: ast.Module) -> list[ast.stmt]:
    return [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def dead_definitions(modules: list[str], searched: dict[str, str]) -> list[str]:
    """The module-level functions and classes of `modules` that nothing in `searched` uses.

    `searched` maps each module's name to its source and holds `modules` too.
    """
    trees = {name: ast.parse(source) for name, source in searched.items()}
    elsewhere = Counter()  # references in modules that do not define the name
    for tree in trees.values():
        own = {node.name for node in top_level_definitions(tree)}
        elsewhere.update({k: v for k, v in references(tree).items() if k not in own})
    dead = []
    for module in modules:
        inside = references(trees[module])
        for node in top_level_definitions(trees[module]):
            uses = elsewhere[node.name] + inside[node.name] - references(node)[node.name]
            if uses == 0:
                dead.append(f"{module}.{node.name}")
    return dead


def test_the_rule_finds_definitions_that_only_their_own_body_or_a_namesake_uses():
    module = (
        "import math\n"
        "def used(x):\n"
        "    return math.floor(x)\n"
        "def recursive(n):\n"
        "    return 1 if n == 0 else n * recursive(n - 1)\n"
        "def shadowed():\n"
        "    return used(1)\n"
        "class Shape:\n"
        "    pass\n"
        "class Spare:\n"
        "    pass\n"
        "def by_attribute():\n"
        "    return Shape()\n"
    )
    caller = "from pkg.mod import Shape\nimport pkg.mod\npkg.mod.by_attribute()\n"
    namesake = "def shadowed():\n    pass\nshadowed()\n"
    searched = {"mod": module, "caller": caller, "namesake": namesake}
    assert dead_definitions(["mod"], searched) == ["mod.recursive", "mod.shadowed", "mod.Spare"]


def test_every_module_level_definition_under_src_is_used():
    searched = {
        str(path.relative_to(ROOT).with_suffix("")): path.read_text()
        for top in SEARCHED
        for path in sorted(top.rglob("*.py"))
    }
    modules = [name for name in searched if name.startswith("src/floortag/")]
    assert modules
    assert dead_definitions(modules, searched) == []
