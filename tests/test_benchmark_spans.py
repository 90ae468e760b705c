"""The spans the benchmark's workloads require must name traced code.

`perfbench/workloads.py` lists, per workload, the spans a traced iteration
must record. A span names a public function or method of a `sedmtl` module
(`networks.student_forward.train` is `networks.student_forward`, split by
whether a tape is active). The file is parsed, not imported, so this test
runs no benchmark code; a rename or deletion in `sedmtl` then fails here,
not only in a traced benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def required_spans() -> set:
    spans = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("_TRAINING_SPANS", "expected_spans")
            for t in node.targets
        ):
            spans |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return spans


def names_traced_code(span: str) -> bool:
    parts = span.removesuffix(".train").removesuffix(".infer").split(".")
    module = importlib.import_module(f"sedmtl.{parts[0]}")
    owner = module
    for attr in parts[1:]:
        if attr.startswith("_") or attr not in vars(owner):
            return False
        owner = vars(owner)[attr]
    if isinstance(owner, classmethod):
        owner = owner.__func__
    return inspect.isfunction(owner) and owner.__module__ == module.__name__


def test_every_required_span_names_a_sedmtl_function():
    spans = required_spans()
    assert len(spans) > 30  # the parse found the workloads' span lists
    assert sorted(s for s in spans if not names_traced_code(s)) == []
