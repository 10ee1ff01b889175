"""Architecture guards, read from the source:

- every streaming algorithm reads its stream through ``common.scan``, so
  ``metric.nearest`` has exactly one call site under ``repro/streaming``,
  inside that function;
- the radius search and OutliersCluster read the pairwise distances of T
  only as ``metric.pair_tiles``, each pair once, so neither calls
  ``cdist``: the |T| x |T| float64 matrix cannot come back."""
import ast
from pathlib import Path

import repro.core
import repro.streaming

CORE = Path(repro.core.__file__).parent
STREAMING = Path(repro.streaming.__file__).parent


class CallSites(ast.NodeVisitor):
    """Collects ``(module file, innermost enclosing function)`` of each
    call to the function ``name``, by name or as an attribute."""

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name
        self.where, self.sites = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if self.name in (getattr(f, "id", None), getattr(f, "attr", None)):
            self.sites.append((self.module, self.where[-1]))
        self.generic_visit(node)


def call_sites(paths, name: str) -> list[tuple[str, str]]:
    sites = []
    for path in sorted(paths):
        calls = CallSites(path.name, name)
        calls.visit(ast.parse(path.read_text()))
        sites += calls.sites
    return sites


def test_nearest_called_only_in_scan():
    assert call_sites(STREAMING.glob("*.py"), "nearest") == [
        ("common.py", "scan")
    ]


def test_round2_never_calls_cdist():
    round2 = [CORE / "search.py", CORE / "outliers_cluster.py"]
    assert call_sites(round2, "cdist") == []
    assert call_sites(round2, "pair_tiles") == [
        ("outliers_cluster.py", "outliers_cluster"),
        ("search.py", "_search"),
    ]
