"""Architecture guard: every streaming algorithm reads its stream through
``common.scan``, so ``metric.nearest`` has exactly one call site under
``repro/streaming``, inside that function."""
import ast
from pathlib import Path

import repro.streaming

STREAMING = Path(repro.streaming.__file__).parent


class NearestCalls(ast.NodeVisitor):
    """Collects ``(module file, innermost enclosing function)`` of each
    call to ``nearest``, by name or as an attribute."""

    def __init__(self, module: str):
        self.module, self.where, self.sites = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if "nearest" in (getattr(f, "id", None), getattr(f, "attr", None)):
            self.sites.append((self.module, self.where[-1]))
        self.generic_visit(node)


def test_nearest_called_only_in_scan():
    sites = []
    for path in sorted(STREAMING.glob("*.py")):
        calls = NearestCalls(path.name)
        calls.visit(ast.parse(path.read_text()))
        sites += calls.sites
    assert sites == [("common.py", "scan")]
