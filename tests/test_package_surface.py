"""gibbslab holds only the program: every public top-level function and class
is used by another top-level statement of the package or traced by the
benchmark (perfbench/spans.py), and every public method or property of a
package class is read as .name elsewhere in the package.  Test references
belong in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The dump readers own the binary formats together with their writers.
EXEMPT = {"read_ensemble", "read_matrix"}
# FockBasis.index_of owns the lookup of a state by its radix code, the
# layout the basis builds its sectors and tables from; the tests read it.
METHOD_EXEMPT = {"FockBasis.index_of"}


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src/gibbslab").glob("*.py"))]


def _used_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_used():
    stmts = [stmt for module in _modules() for stmt in module.body]
    bench = ast.parse((ROOT / "perfbench/spans.py").read_text(encoding="utf-8"))
    spans = next(s for s in bench.body
                 if isinstance(s, ast.Assign) and ast.unparse(s.targets[0]) == "SPANS")
    traced = {span[1] for span in ast.literal_eval(spans.value)}
    unused = [d.name for d in stmts
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and d.name not in EXEMPT | traced
              and not any(d.name in _used_names(s) for s in stmts if s is not d)]
    assert not unused, f"public definitions nothing in the package uses: {unused}"


def _attribute_reads(node, name: str) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def test_every_public_method_is_used():
    modules = _modules()
    unused = [f"{cls.name}.{fn.name}" for module in modules for cls in module.body
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
              and f"{cls.name}.{fn.name}" not in METHOD_EXEMPT
              and sum(_attribute_reads(m, fn.name) for m in modules)
              == _attribute_reads(fn, fn.name)]
    assert not unused, f"public methods nothing else in the package reads: {unused}"
