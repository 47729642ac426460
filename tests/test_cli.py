"""End-to-end runs of the installed command line tool."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dualformer.model import PRESETS, config_from_text


ROOT = Path(__file__).resolve().parents[1]


def run(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "dualformer.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_import_leaves_numpy_unloaded():
    # --threads pins BLAS through the environment, which works only while
    # numpy is not loaded yet; the package import must not pull it in
    code = "import sys, dualformer.cli; print('numpy' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_count_micro_total():
    res = run("count", "--preset", "Micro")
    assert res.returncode == 0
    assert "total" in res.stdout and "343192" in res.stdout


def test_flops_table():
    res = run("flops", "--preset", "Micro", "--height", "32", "--width", "32")
    assert res.returncode == 0
    assert "total" in res.stdout and "stem" in res.stdout


def test_unknown_preset_exits_2():
    res = run("count", "--preset", "XXL")
    assert res.returncode == 2
    assert "XXL" in res.stderr


def test_build_roundtrip_and_config_dump(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    cfg_path = tmp_path / "m.cfg"
    res = run("build", "--preset", "Micro", "--out", ckpt, "--dump-config", cfg_path)
    assert res.returncode == 0, res.stderr
    cfg = config_from_text(cfg_path.read_text())
    assert cfg == PRESETS["Micro"]
    # a config file is as good as a preset name
    res = run("count", "--config", cfg_path)
    assert "343192" in res.stdout


def test_build_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert run("build", "--preset", "Micro", "--out", a, "--threads", "1").returncode == 0
    assert run("build", "--preset", "Micro", "--out", b, "--threads", "1").returncode == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.ckpt"
    run("build", "--preset", "Micro", "--out", c, "--seed", "1")
    assert a.read_bytes() != c.read_bytes()


def test_mode_flag_builds_variant(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    cfg_path = tmp_path / "m.cfg"
    res = run(
        "build", "--preset", "Micro", "--mode", "conv_only",
        "--out", ckpt, "--dump-config", cfg_path,
    )
    assert res.returncode == 0
    assert config_from_text(cfg_path.read_text()).mode == "conv_only"


def test_mode_flag_rejected_for_checkpoints(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    run("build", "--preset", "Micro", "--out", ckpt)
    res = run("eval", "--ckpt", ckpt, "--mode", "series", "--n", "8")
    assert res.returncode == 2
    assert "mode" in res.stderr


def test_train_eval_cycle(tmp_path):
    ckpt = tmp_path / "t.ckpt"
    metrics = tmp_path / "metrics.csv"
    res = run(
        "train", "--preset", "Micro", "--n", "32", "--epochs", "2", "--batch", "16",
        "--out", ckpt, "--metrics", metrics,
    )
    assert res.returncode == 0, res.stderr
    lines = metrics.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,val_acc"
    assert len(lines) == 3
    assert "epoch" in res.stderr  # progress stays off stdout
    assert ckpt.exists()

    res = run("eval", "--ckpt", ckpt, "--n", "16")
    assert res.returncode == 0
    head, row = res.stdout.strip().split("\n")
    assert head == "loss,acc"
    loss, acc = map(float, row.split(","))
    assert np.isfinite(loss) and 0.0 <= acc <= 1.0


def test_train_metrics_to_stdout_when_no_path(tmp_path):
    res = run("train", "--preset", "Micro", "--n", "16", "--epochs", "1", "--batch", "8")
    assert res.returncode == 0
    assert res.stdout.startswith("epoch,train_loss,val_loss,val_acc")


def test_fourier_spectrum_csv():
    res = run("fourier", "--preset", "Micro", "--stage", "2", "--n", "8", "--bins", "6")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "radius,db"
    assert len(lines) == 7


def test_partitions_dump(tmp_path):
    out = tmp_path / "maps"
    res = run("partitions", "--preset", "Micro", "--out-dir", out, "--n", "8")
    assert res.returncode == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == sum(PRESETS["Micro"].heads)
    assert all(f.endswith(".pgm") for f in files)


@pytest.mark.parametrize("sample", ["8", "-1"])
def test_partitions_sample_outside_batch_exits_2(tmp_path, sample):
    out = tmp_path / "maps"
    res = run("partitions", "--preset", "Micro", "--out-dir", out, "--n", "8",
              "--sample", sample)
    assert res.returncode == 2, res.stderr
    assert "error: sample" in res.stderr
    assert not out.exists()


def test_partitions_without_hash_sites_exits_2(tmp_path):
    # conv_only blocks have no attention branch, so there is nothing to draw
    out = tmp_path / "maps"
    res = run("partitions", "--preset", "Micro", "--mode", "conv_only",
              "--out-dir", out, "--n", "8")
    assert res.returncode == 2, res.stderr
    assert "no hash sites" in res.stderr
    assert not out.exists()


def test_gradcheck_smoke(tmp_path):
    cfg = tmp_path / "mini.cfg"
    text = (
        "name=mini\ndepths=1,1,1,1\nchannels=8,16,32,64\n"
        "downsample_rates=4,2,2,1\nsplit_ratio=0.5\n"
        "ffn_ratio=4.0\nnum_classes=4\nmode=parallel\n"
        "share_partitions=false\nresample_norms=false\n"
    )
    cfg.write_text(text)
    res = run("gradcheck", "--config", cfg, "--max-checks", "1", "--batch", "1")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[ok]" in res.stdout
    res = run(
        "gradcheck", "--config", cfg, "--max-checks", "1", "--batch", "1",
        "--tol", "1e-12",
    )
    assert res.returncode == 1
    assert "[FAIL]" in res.stdout


def test_failed_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    res = run("eval", "--ckpt", tmp_path / "nope.ckpt", "--out", target, "--n", "8")
    assert res.returncode == 2
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no temp litter either


def run_script(script, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script", ["run_ablation.py", "bench_pairs.py", "fault_count.py"])
def test_script_help(script):
    res = run_script(script, "--help")
    assert res.returncode == 0, res.stderr
    assert "usage:" in res.stdout


def test_ablation_writes_its_csv_atomically(tmp_path):
    out = tmp_path / "ablation.csv"
    res = run_script("run_ablation.py", "--modes", "parallel", "--n", "8", "--epochs", "1",
                     "--batch", "8", "--out", out, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    header, row = out.read_text().splitlines()
    assert header == "mode,train_loss,val_loss,val_acc"
    assert row.startswith("parallel,") and len(row.split(",")) == 4
    assert list(tmp_path.iterdir()) == [out]  # no temp file left beside it


STUB_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
rate = {rate} + seed % 3
print("# env " + json.dumps({{"threads": 2}}))
metrics = {{"items_per_s": rate, "op_ms_tail": 1000.0 / rate, "setup_s": 0.5,
            "peak_rss_mb": 100.0 + seed % 2}}
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "u"}} for k, v in metrics.items()}}}}))
"""


def test_bench_pairs_alternates_sides_and_counts_pair_wins(tmp_path):
    trees = {}
    for side, rate in (("parent", 10.0), ("change", 12.0)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN.format(rate=rate))
        trees[side] = tmp_path / side
    out = tmp_path / "pairs.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}))
    res = run_script("bench_pairs.py", "--parent", trees["parent"], "--change", trees["change"],
                     "--workload", "w", "--pairs", 3, "--seed0", 7, "--out", out)
    assert res.returncode == 0, res.stderr
    record = json.loads(out.read_text())
    assert record["workloads"]["other"] == {"kept": True}
    w = record["workloads"]["w"]
    assert w["seeds"] == [7, 8, 9] and w["first"] == ["parent", "change", "parent"]
    assert w["ops_attempted"] == {"parent": 12, "change": 12} and w["all_correct"]
    rate = w["items_per_s"]
    assert rate["parent_runs"] == [11.0, 12.0, 10.0] and rate["change_runs"] == [13.0, 14.0, 12.0]
    assert rate["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert rate["change_wins"] == "3/3" and rate["median_gap_over_parent_iqr"] == 2.0
    assert w["op_ms_tail"]["change_wins"] == "3/3"  # lower is better there
    assert w["setup_s"]["change_wins"] == "0/3"  # ties count for neither side
    assert "items_per_s" in res.stdout and "change wins 3/3" in res.stdout


def test_fault_count_reports_both_modes(tmp_path):
    out = tmp_path / "faults.json"
    res = run_script("fault_count.py", "--workload", "tokens-3136", "--ops", 2, "--warmup-s", 0,
                     "--out", out)
    assert res.returncode == 0, res.stderr
    record = json.loads(out.read_text())
    row = record["workloads"]["tokens-3136"]
    assert row["warmed"]["ops"] == row["fresh"]["ops"] == 2
    assert row["warmed"]["faults_per_op"] >= 0 and row["fresh"]["first_op"] >= 0
    assert row["env"]["threads"] == 2 and json.loads(res.stdout) == record
