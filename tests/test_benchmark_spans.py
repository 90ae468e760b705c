"""The spans the benchmark's workloads require must name traced code, and
the benchmark's tracer must keep working on the package.

`perfbench/workloads.py` lists, per workload, the spans a traced iteration
must record. A span names a public function or method of a `sedmtl` module
(`networks.student_forward.train` is `networks.student_forward`, split by
whether a tape is active). The file is parsed, not imported, so the first
test runs no benchmark code; a rename or deletion in `sedmtl` then fails
here, not only in a traced benchmark run. The second runs a small `eval`
under `perfbench/tracing.py`'s tracer, whose hooks read some functions'
arguments, so a signature change they rely on fails here too.
"""

import ast
import importlib
import inspect
from pathlib import Path

from sedmtl import cli, networks
from sedmtl.fixture import generate_fixture

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_traced_calibrated_eval_records_the_inference_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    info = generate_fixture(tmp_path / "data", clip_seconds=1.0, clips_per_scene=1)
    ingested, features = tmp_path / "ingested", tmp_path / "features"
    assert cli.main([
        "ingest", "--metadata", str(info.metadata_path),
        "--annotations", str(info.annotations_dir), "--out", str(ingested), "--folds", "2",
    ]) == 0
    assert cli.main(["features", "--manifest", str(ingested / "manifest.json"),
                     "--out", str(features)]) == 0
    ckpt = tmp_path / "student.ckpt"
    networks.save_checkpoint(ckpt, networks.init_student_params(4, 5, seed=0), {
        "kind": "student", "n_scenes": 4, "n_events": 5,
        "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
    })
    tracer = Tracer("sedmtl")
    tracer.install()
    try:
        code = cli.main([
            "eval", "--checkpoint", str(ckpt),
            "--manifest", str(ingested / "manifest.json"),
            "--vocabulary", str(ingested / "vocabulary.json"),
            "--features", str(features), "--fold", "-1", "--policy", "calibrated",
            "--out", str(tmp_path / "report"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("training.student_posteriors") >= 1
    assert names.count("networks.student_forward.infer") >= 1
