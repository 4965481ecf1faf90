"""gibbslab holds only the program: every public top-level function and class
is used by another top-level statement of the package or traced by the
benchmark (perfbench/spans.py).  Test references belong in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The dump readers own the binary formats together with their writers.
EXEMPT = {"read_ensemble", "read_matrix"}


def _used_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_used():
    stmts = [stmt for path in sorted((ROOT / "src/gibbslab").glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    bench = ast.parse((ROOT / "perfbench/spans.py").read_text(encoding="utf-8"))
    spans = next(s for s in bench.body
                 if isinstance(s, ast.Assign) and ast.unparse(s.targets[0]) == "SPANS")
    traced = {span[1] for span in ast.literal_eval(spans.value)}
    unused = [d.name for d in stmts
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and d.name not in EXEMPT | traced
              and not any(d.name in _used_names(s) for s in stmts if s is not d)]
    assert not unused, f"public definitions nothing in the package uses: {unused}"
