"""The number of settable values under src/floortag is pinned.

A settable value is a default a caller can override: a defaulted positional
or keyword-only parameter of a function, method or lambda, or a defaulted
field of a `@dataclass` class. Plain class attributes, such as
`pipeline.PipelineConfig`'s settings, are constants and do not count. A
change that adds or removes one updates SETTABLE_VALUES and says why.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floortag"
SETTABLE_VALUES = 61


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "dataclass"


def settable_values(source: str) -> int:
    """Defaulted parameters plus defaulted dataclass fields in one module's source."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            _is_dataclass_decorator(d) for d in node.decorator_list
        ):
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
    return count


def test_the_rule_counts_defaults_and_dataclass_fields_only():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    return lambda x, y=3: x\n"
        "class Settings:\n"
        "    limit: int = 4\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    name: str\n"
        "    size: int = 0\n"
        "    tags: list = field(default_factory=list)\n"
        "    def scaled(self, k=2):\n"
        "        return self.size * k\n"
    )
    # b, d, y, size, tags and k; not Settings.limit nor the undefaulted name.
    assert settable_values(source) == 6


def test_settable_values_under_src_are_pinned():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert sum(settable_values(path.read_text()) for path in modules) == SETTABLE_VALUES
