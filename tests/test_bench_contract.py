"""The names the benchmark harness binds in the package, checked without a run.

``perfbench/`` traces and replays functions by module, name and argument
name, so a rename in ``src/`` breaks it only at benchmark time. These tests
load its tracer by path and resolve every name and dataclass field it and
the workloads use.
"""
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = load_tracer()

# names the workloads, the site replay and the runner read off the package
USED = {
    "cli": ("_THREAD_VARS",),
    "blocks": ("make_mhpa",),
    "data": ("make_shapes",),
    "flops": ("count_flops", "block_flops"),
    "mhpa": ("EPS", "MhpaConfig", "mhpa_head_forward", "segment_counts"),
    "model": ("build_model", "get_preset", "capture_partitions", "forward", "named_parameters"),
    "partition": (
        "sample_norm_vectors", "lsh_assign", "kmeans_assign", "kmeans_objective",
        "Partition.validate",
    ),
    "precision": ("precision",),
    "tensor": ("Tensor", "no_grad", "tsum", "graph_records"),
    "train": ("AdamW", "evaluate", "cross_entropy", "clip_gradients"),
}

# dataclass fields the workloads read by name: the MHPA head reference reads
# every head tensor and the hash normals; the terminal fill walks the model
FIELDS = {
    ("mhpa", "MhpaHeadParams"): (
        "token_w", "token_b", "imp_w1", "imp_b1", "imp_w2", "imp_b2", "agg_w", "agg_b", "norms",
    ),
    ("partition", "NormVectors"): ("beta",),
    ("model", "Model"): ("stages", "head_w"),
    ("model", "StageParams"): ("blocks",),
    ("blocks", "DualBlockParams"): ("mbconv", "mhpa", "ffn"),
    ("blocks", "MBConvParams"): ("proj_w",),
    ("mhpa", "MhpaParams"): ("up_w", "heads"),
    ("blocks", "FfnParams"): ("w2",),
}


def resolve(mod_name, attr):
    obj = importlib.import_module(f"dualformer.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def params(fn):
    return list(inspect.signature(fn).parameters)


def unresolved(names):
    missing = []
    for mod_name, attr in names:
        try:
            resolve(mod_name, attr)
        except (AttributeError, ImportError):
            missing.append(f"{mod_name}.{attr}")
    return missing


def test_traced_targets_resolve():
    assert unresolved(TRACER.TARGETS) == []


def test_workload_names_resolve():
    assert unresolved([(m, a) for m, names in USED.items() for a in names]) == []


def test_site_replay_and_hook_signatures():
    # replay calls fn(x, *extra); hooks read these arguments by name
    for name, (_, replay) in TRACER.SITE_ARGS.items():
        assert params(resolve(*name.split(".")))[: 1 + len(replay)] == ["x", *replay], name
    assert "num_clusters" in params(resolve("mhpa", "mhpa_head_forward"))
    assert "train" in params(resolve("model", "forward"))


def test_dataclass_fields_resolve():
    missing = []
    for (mod_name, cls), names in FIELDS.items():
        have = {f.name for f in dataclasses.fields(resolve(mod_name, cls))}
        missing += [f"{mod_name}.{cls}.{n}" for n in names if n not in have]
    assert missing == []
