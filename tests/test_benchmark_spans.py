"""The spans the benchmark's workloads require must name traced code, and
the benchmark's tracer must keep working on the package.

`perfbench/workloads.py` lists, per workload, the spans a traced iteration
must record. A span names a public function or method of a `sedmtl` module
(`networks.student_forward.train` is `networks.student_forward`, split by
whether the calling thread has a tape). The file is parsed, not imported, so
the first test runs no benchmark code; a rename or deletion in `sedmtl` then
fails here, not only in a traced benchmark run. The others run a small
`eval`, a small fixed-policy `cv` and a small teacher `train` under
`perfbench/tracing.py`'s tracer, whose hooks read some functions' arguments
(the `student_posteriors` hook reads the first clip), so a signature change
they rely on, or a call they cannot read, fails here too.
"""

import ast
import importlib
import inspect
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from sedmtl import cli, networks, parallel
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


def ingested_fixture(root):
    """Four 1 s fixture clips in two folds: (manifest, vocabulary, features)."""
    info = generate_fixture(root / "data", clip_seconds=1.0, clips_per_scene=1)
    ingested, features = root / "ingested", root / "features"
    assert cli.main([
        "ingest", "--metadata", str(info.metadata_path),
        "--annotations", str(info.annotations_dir), "--out", str(ingested), "--folds", "2",
    ]) == 0
    assert cli.main(["features", "--manifest", str(ingested / "manifest.json"),
                     "--out", str(features)]) == 0
    return ingested / "manifest.json", ingested / "vocabulary.json", features


def traced_spans(monkeypatch, argv):
    """The span names of one `sedmtl` command run under the benchmark's tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer("sedmtl")
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return [span[0] for span in tracer.spans]


def test_traced_calibrated_eval_records_the_inference_spans(tmp_path, monkeypatch):
    manifest, vocabulary, features = ingested_fixture(tmp_path)
    ckpt = tmp_path / "student.ckpt"
    networks.save_checkpoint(ckpt, networks.init_student_params(4, 5, seed=0), {
        "kind": "student", "n_scenes": 4, "n_events": 5,
        "band_stats": {"mean": [0.0] * 64, "std": [1.0] * 64},
    })
    names = traced_spans(monkeypatch, [
        "eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
        "--vocabulary", str(vocabulary), "--features", str(features),
        "--fold", "-1", "--policy", "calibrated", "--out", str(tmp_path / "report"),
    ])
    assert names.count("training.student_posteriors") >= 1
    assert names.count("networks.student_forward.infer") >= 1


def test_traced_fixed_policy_cv_scores_from_the_training_posteriors(tmp_path, monkeypatch):
    manifest, vocabulary, features = ingested_fixture(tmp_path)
    cfg = tmp_path / "cv.json"
    cfg.write_text(json.dumps({
        "paths": {"manifest": str(manifest), "vocabulary": str(vocabulary),
                  "features_dir": str(features), "out_dir": str(tmp_path / "cv")},
        "train": {"max_epochs": 1, "batch_size": 8, "chunk_len": 50},
        "cv": {"modes": ["event_only"], "seeds": [0], "eval": {"policy": "fixed"}},
    }))
    monkeypatch.setenv("SEDMTL_WORKERS", "1")
    names = traced_spans(monkeypatch, ["cv", "--config", str(cfg)])
    assert names.count("training.run_cross_validation") == 1
    assert names.count("training.score_student") == 2  # one per fold
    # one validation forward per fold and epoch; scoring adds none
    assert names.count("training.student_posteriors") == 2
    assert names.count("networks.student_forward.train") >= 1


def test_traced_teacher_train_splits_its_forwards_by_tape(tmp_path, monkeypatch):
    # the teacher's taped forwards run on sub-tapes, on the caller's thread and
    # on a helper; its validation forwards run untaped
    manifest, vocabulary, features = ingested_fixture(tmp_path)
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "paths": {"manifest": str(manifest), "vocabulary": str(vocabulary),
                  "features_dir": str(features), "out_dir": str(tmp_path / "out")},
        "train": {"mode": "teacher", "max_epochs": 1, "batch_size": 4, "fold": 0},
    }))
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(parallel, "_threads", 2)
    monkeypatch.setattr(parallel, "_pool", pool)
    try:
        names = traced_spans(monkeypatch, ["train", "--config", str(cfg)])
    finally:
        pool.shutdown()
    # two training clips, one on each thread, then two validation clips
    assert names.count("networks.teacher_forward.train") == 2
    assert names.count("networks.teacher_forward.infer") == 2
