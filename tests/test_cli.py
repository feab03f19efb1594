"""End-to-end checks of the command line: artifacts, exit codes, reruns."""
import contextlib
import csv
import dataclasses
import gzip
import io
import os
import struct
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import mmgan.trainer as trainer_mod
from mmgan.cli import _write_samples, main
from mmgan.config import (KERNEL_CHOICES, RunConfig, manifest_text,
                          parse_config_text)
from mmgan.neural import ACTIVATIONS
from mmgan.trainer import draw_eval_batch, score_samples
from mmgan.persist import load_network, save_network


FAST = ["--dataset", "ring8", "--steps", "60", "--batch", "16",
        "--eval-interval", "30", "--eval-samples", "64", "--seed", "5"]
HEADER = ("step,loss_g,loss_d,manifold_term,radius_term,r_g,"
          "modes_covered,hq_fraction,centroid_gap,radius_gap,r_g_value")


def run_fast(tmp_path, name="run", extra=()):
    out = tmp_path / name
    code = main(["train", *FAST, *extra, "--out", str(out)])
    assert code == 0
    return out


def test_train_writes_expected_artifacts(tmp_path):
    out = run_fast(tmp_path)
    names = {p.name for p in out.iterdir()}
    assert names == {"metrics.csv", "manifest.txt", "generator.bin",
                     "samples_30.csv", "samples_60.csv",
                     "scatter_30.svg", "scatter_60.svg"}


def test_metrics_csv_shape(tmp_path):
    out = run_fast(tmp_path)
    raw = (out / "metrics.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 11
        assert all(np.isfinite(float(c)) for c in cells)
    assert [line.split(",")[0] for line in lines[1:]] == ["30", "60"]


def test_manifest_closes_over_directory(tmp_path):
    out = run_fast(tmp_path)
    prefix = "# artifact: "
    listed = {line[len(prefix):]
              for line in (out / "manifest.txt").read_text().splitlines()
              if line.startswith(prefix)}
    present = {p.name for p in out.iterdir()}
    assert listed == present


def test_manifest_rerun_is_bit_identical(tmp_path):
    first = run_fast(tmp_path, "first")
    manifest = (first / "manifest.txt").read_text()
    second = tmp_path / "second"
    code = main(["train", "--config", str(first / "manifest.txt"),
                 "--out", str(second)])
    assert code == 0
    assert (first / "metrics.csv").read_bytes() == \
        (second / "metrics.csv").read_bytes()
    assert (first / "generator.bin").read_bytes() == \
        (second / "generator.bin").read_bytes()
    # the only manifest difference is the recorded output directory
    diff = [pair for pair in zip(manifest.splitlines(),
                                 (second / "manifest.txt").read_text()
                                 .splitlines()) if pair[0] != pair[1]]
    assert all(a.startswith("out = ") for a, _ in diff)


def test_samples_csv_is_rfc4180(tmp_path):
    out = run_fast(tmp_path)
    raw = (out / "samples_60.csv").read_bytes()
    assert b"\r" not in raw
    with open(out / "samples_60.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["x0", "x1"]
    assert len(rows) == 1 + 64
    float(rows[1][0])


@pytest.mark.parametrize("dataset", ["idx", "ring8"])
def test_samples_csv_cells_are_repr_of_the_eval_batch(tmp_path, dataset):
    # every cell is repr of its value in draw_eval_batch's fake matrix, at
    # an idx-like width of 10 columns and at ring8's 2
    flags = ["--dataset", dataset]
    if dataset == "idx":
        _write_idx(tmp_path / "tiny.idx", rows=2, cols=5)
        flags += ["--idx-images", str(tmp_path / "tiny.idx")]
    out = tmp_path / "run"
    assert main(["train", *flags, "--steps", "6", "--batch", "8",
                 "--eval-interval", "3", "--eval-samples", "40", "--seed", "2",
                 "--out", str(out)]) == 0
    cfg = parse_config_text((out / "manifest.txt").read_text())
    fake, _ = draw_eval_batch(load_network(str(out / "generator.bin")),
                              cfg.load_dataset(), 40, seed=2, step=6)
    width = 10 if dataset == "idx" else 2
    assert fake.shape == (40, width)
    lines = (out / "samples_6.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == ",".join(f"x{i}" for i in range(width))
    assert lines[-1] == ""  # every line ends in \n
    assert [line.split(",") for line in lines[1:-1]] == [
        [repr(v) for v in row] for row in fake.tolist()]


def test_samples_csv_writes_every_float_by_repr(tmp_path):
    fake = np.array([[-0.0, 5e-324, 1e300, 0.1 + 0.2],
                     [np.nan, np.inf, -np.inf, -1.5]])
    _write_samples(str(tmp_path), 7, fake, artifacts := [])
    assert artifacts == ["samples_7.csv"]
    assert (tmp_path / "samples_7.csv").read_bytes() == (
        b"x0,x1,x2,x3\n"
        b"-0.0,5e-324,1e+300,0.30000000000000004\n"
        b"nan,inf,-inf,-1.5\n")


@pytest.mark.parametrize("flags", [
    ["--latent-dim", "200000000"], ["--batch", "100000"],
    ["--g-hidden", "64,100000"], ["--d-hidden", "100000,16"],
    ["--g-hidden", ",".join(["4"] * 9)],
], ids=["latent_dim", "batch", "g_width", "d_width", "g_depth"])
def test_train_rejects_oversized_networks(tmp_path, flags):
    out = tmp_path / "run"
    code, stdout, err = _main_quietly(["train", *flags, "--steps", "1",
                                       "--out", str(out)])
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("dataset = ring8\nseed = 1\nsteps = 60\nbatch = 16\n"
                   "eval_interval = 30\neval_samples = 64\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--seed", "9",
                 "--kernel", "rbf", "--out", str(out)])
    assert code == 0
    saved = parse_config_text((out / "manifest.txt").read_text())
    assert saved.seed == 9
    assert saved.kernel == "rbf"
    assert saved.steps == 60


def test_baseline_flag_recorded(tmp_path):
    out = run_fast(tmp_path, extra=["--baseline"])
    saved = parse_config_text((out / "manifest.txt").read_text())
    assert saved.baseline is True


def test_default_out_dir_uses_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MMGAN_OUT", str(tmp_path / "root"))
    code = main(["train", *FAST])
    assert code == 0
    assert (tmp_path / "root" / "ring8-none-s5" / "metrics.csv").exists()


def test_train_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "no_such_key" in capsys.readouterr().err


def test_train_rejects_bad_flag_value(capsys):
    assert main(["train", "--dataset", "nosuch"]) == 1
    assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--steps", "0"], ["--batch", "1"], ["--alpha", "-1"], ["--delta", "1.5"],
    ["--kernel", "rbf", "--gamma", "-1"], ["--eval-interval", "0"],
    ["--eval-samples", "1"], ["--kernel", "poly"],
    ["--kernel", "none", "--gamma", "-1"], ["--alpha", "inf"],
    ["--eval-samples", "100000000000000"], ["--steps", "x"],
], ids=lambda f: " ".join(f))
def test_train_rejects_bad_numeric_flag(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["train", *FAST, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_kernel_choices_in_help(capsys):
    # train and gradcheck accept one kernel list
    for command in ("train", "gradcheck"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--kernel {none,linear,rbf,exp}" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    "momentum_g = 1.0", "momentum_d = -0.5", "g_out_activation = foo",
    "d_hidden = 64,1", "d_hidden =", "g_hidden = 0", "kernel = poly",
])
def test_train_rejects_bad_config_value(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "run"
    assert main(["train", *FAST, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_interrupted_retrain_leaves_no_finished_run(tmp_path, monkeypatch):
    out = run_fast(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("mmgan.cli.train", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", *FAST, "--steps", "90", "--out", str(out)])
    assert not (out / "manifest.txt").exists()
    assert not (out / "generator.bin").exists()


def test_retrain_removes_stale_eval_artifacts(tmp_path):
    out = run_fast(tmp_path)
    assert main(["train", *FAST, "--steps", "40", "--eval-interval", "20",
                 "--out", str(out)]) == 0
    prefix = "# artifact: "
    listed = {line[len(prefix):]
              for line in (out / "manifest.txt").read_text().splitlines()
              if line.startswith(prefix)}
    assert {p.name for p in out.iterdir()} == listed
    assert "samples_20.csv" in listed and "samples_60.csv" not in listed


def test_train_value_error_mid_run_exits_3(tmp_path, capsys, monkeypatch):
    calls = []
    orig = trainer_mod.g_step

    def bomb(*a, **k):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("kernel not positive semidefinite")
        return orig(*a, **k)

    monkeypatch.setattr(trainer_mod, "g_step", bomb)
    assert main(["train", *FAST, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "numerical abort" in err and "positive semidefinite" in err
    assert "(step 2)" in err


@pytest.mark.parametrize("net, layer", [("g", 0), ("d", 1)])
def test_train_nan_weight_abort_names_network_layer_and_step(
        tmp_path, capsys, monkeypatch, net, layer):
    # a NaN put into one of G's or D's weights before step 2's D update
    calls = []
    orig = trainer_mod.d_step

    def poison(g_net, d_net, *a):
        calls.append(1)
        if len(calls) == 2:
            dict(g=g_net, d=d_net)[net].layers[layer].weight.value[0, 0] = np.nan
        return orig(g_net, d_net, *a)

    monkeypatch.setattr(trainer_mod, "d_step", poison)
    assert main(["train", *FAST, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err == (f"numerical abort: non-finite activation in "
                   f"{net}.layer{layer} (step 2)\n")


def test_train_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["train", *FAST, "--out", str(blocker / "sub")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_train_numerical_abort(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--dataset", "ring8", "--steps", "50",
                 "--eval-interval", "25", "--out", str(out),
                 "--config", str(_hot_config(tmp_path))])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "step" in err
    # config and partial artifacts are still recorded
    assert (out / "manifest.txt").exists()


def test_train_eval_overflow_names_field_and_step(tmp_path):
    # lr_g 1e10 leaves the step-2 samples finite but not their squares, so
    # the evaluation's sphere gaps overflow
    out = tmp_path / "run"
    code, _, err = _main_quietly(["train", "--dataset", "grid25", "--kernel",
                                  "linear", "--lr-g", "1e10", "--steps", "2",
                                  "--out", str(out)])
    assert code == 3 and "Traceback" not in err
    assert err == "numerical abort: non-finite centroid_gap (step 2)\n"
    # the aborted evaluation wrote no row
    assert (out / "metrics.csv").read_text() == HEADER + "\n"


def _hot_config(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("lr_g = 1000000.0\n")
    return cfg


def test_eval_matches_library_call(tmp_path, capsys):
    out = run_fast(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("step,modes_covered,coverage_fraction,hq_fraction,"
                        "centroid_gap,radius_gap,r_g_value")
    cells = lines[1].split(",")
    cfg = parse_config_text((out / "manifest.txt").read_text())
    data = cfg.load_dataset()
    row = score_samples(*draw_eval_batch(load_network(out / "generator.bin"),
                                         data, cfg.eval_samples, seed=cfg.seed,
                                         step=cfg.steps),
                        data, step=cfg.steps)
    assert cells[0] == str(row.step)
    assert cells[1] == str(row.modes_covered)
    assert cells[3] == repr(row.hq_fraction)
    assert cells[6] == repr(row.r_g_value)


def test_eval_empty_sample_count(tmp_path, capsys):
    out = run_fast(tmp_path)
    assert main(["eval", "--out", str(out), "--eval-samples", "0"]) == 1
    assert "eval_samples must be >= 2" in capsys.readouterr().err
    # r_g, one of the scores, compares at least two samples
    assert main(["eval", "--out", str(out), "--eval-samples", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_missing_run(tmp_path, capsys):
    assert main(["eval", "--out", str(tmp_path / "nowhere")]) == 2


def test_eval_corrupt_params(tmp_path, capsys):
    out = run_fast(tmp_path)
    (out / "generator.bin").write_bytes(b"JUNKJUNKJUNK")
    assert main(["eval", "--out", str(out)]) == 2
    assert "parameters" in capsys.readouterr().err


def test_eval_needs_location(capsys):
    assert main(["eval"]) == 1


def test_gradcheck_full_table(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all("ok" in line for line in lines)


def test_gradcheck_single_variant(capsys):
    assert main(["gradcheck", "--kernel", "linear", "--alpha", "0",
                 "--beta", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_gradcheck_fault_injection(capsys):
    assert main(["gradcheck", "--kernel", "none", "--beta", "0",
                 "--inject-fault"]) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "plain" in captured.err


def test_gradcheck_overflow_fails_its_rows_without_warnings():
    # gamma 1e308 overflows the rbf kernel: the rows fail, as NaN, and
    # numpy's per-op warnings stay out of the report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _main_quietly(["gradcheck", "--kernel", "rbf",
                                        "--gamma", "1e308"])
    assert code == 4 and caught == []
    assert [line.split()[-1] for line in out.splitlines()] == ["FAIL", "FAIL"]
    assert err == "gradcheck failed: rbf, rbf+rg\n"


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--alpha", "-1"], ["gradcheck", "--beta", "-1"],
    ["gradcheck", "--gamma", "-1"], ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--alpha", "inf"], ["gradcheck", "--seed", "x"],
    ["eval", "--out", "{run}", "--eval-samples", "100000000000000"],
    ["eval", "--out", "{run}", "--seed", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_settings_of_eval_and_gradcheck_are_range_checked(finished_run, argv):
    code, out, err = _main_quietly([a.format(run=finished_run) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _write_idx(path, rows=7, cols=7):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(80, rows, cols), dtype=np.uint8)
    path.write_bytes(struct.pack(">IIII", 2051, 80, rows, cols) + imgs.tobytes())


def test_idx_training_smoke(tmp_path):
    p = tmp_path / "mini.idx"
    _write_idx(p)
    out = tmp_path / "run"
    code = main(["train", "--dataset", "idx", "--idx-images", str(p),
                 "--steps", "40", "--eval-interval", "20", "--batch", "16",
                 "--eval-samples", "32", "--out", str(out)])
    assert code == 0
    names = {q.name for q in out.iterdir()}
    assert "samples_40.csv" in names
    assert not any(n.endswith(".svg") for n in names)


def _idx_run(tmp_path, monkeypatch):
    """A short idx run trained from tmp_path on a relative image path."""
    _write_idx(tmp_path / "mini.idx")
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--dataset", "idx", "--idx-images", "mini.idx",
                 "--steps", "4", "--batch", "16", "--eval-samples", "32",
                 "--out", "idx_run"]) == 0
    return tmp_path / "idx_run"


def _eval_r_g(out, capsys, *flags) -> str:
    capsys.readouterr()
    assert main(["eval", "--out", str(out), *flags]) == 0
    return capsys.readouterr().out.splitlines()[1].split(",")[-1]


def test_eval_r_g_value_reads_0_where_it_cannot_vary(tmp_path, monkeypatch,
                                                      capsys):
    # on two columns r_g is the constant sqrt(n^2 - n), so ring8 prints 0
    assert _eval_r_g(run_fast(tmp_path), capsys) == "0.0"
    out = _idx_run(tmp_path, monkeypatch)
    values = {float(_eval_r_g(out, capsys, "--seed", str(s))) for s in (0, 1)}
    n = 32  # the run's eval_samples
    assert len(values) == 2
    assert all(np.isfinite(v) and 0.0 < v < np.sqrt(n * n - n) for v in values)


def test_train_metrics_r_g_value_is_evals_on_idx(tmp_path, monkeypatch,
                                                   capsys):
    out = _idx_run(tmp_path, monkeypatch)
    final = (out / "metrics.csv").read_text().splitlines()[-1].split(",")[-1]
    assert float(final) > 0.0
    assert final == _eval_r_g(out, capsys)


def test_eval_runs_from_another_directory(tmp_path, monkeypatch, capsys):
    out = _idx_run(tmp_path, monkeypatch)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["eval", "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_eval_missing_idx_file_exits_1(tmp_path, monkeypatch):
    out = _idx_run(tmp_path, monkeypatch)
    (tmp_path / "mini.idx").unlink()
    code, _, err = _main_quietly(["eval", "--out", str(out)])
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error:") and "mini.idx" in err


def test_eval_bad_idx_magic_names_the_file(tmp_path, monkeypatch):
    out = _idx_run(tmp_path, monkeypatch)
    images = tmp_path / "mini.idx"
    raw = bytearray(images.read_bytes())
    struct.pack_into(">I", raw, 0, 2049)  # the IDX label-file magic
    images.write_bytes(bytes(raw))
    code, text, err = _main_quietly(["eval", "--out", str(out)])
    assert code == 1 and text == "" and "Traceback" not in err
    assert err.startswith("error:")
    assert "mini.idx: bad images magic 2049" in err


@pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (100_000_000, 28, 28)],
                         ids=["u32-max", "100M-images"])
def test_train_rejects_oversized_idx_header(tmp_path, dims):
    p = tmp_path / "huge.idx"
    p.write_bytes(struct.pack(">IIII", 2051, *dims) + bytes(64))
    out = tmp_path / "run"
    code, _, err = _main_quietly(["train", "--dataset", "idx", "--idx-images",
                                  str(p), "--out", str(out)])
    assert code == 1 and "Traceback" not in err
    assert f"{p}: truncated idx image payload" in err
    assert not out.exists()


def _damage_gz(path, damage):
    """Gzip the IDX file at path in place, then truncate its stream or
    corrupt its deflate data (block type 3, which deflate reserves); or
    leave it uncompressed, a .gz name on no gzip data at all."""
    if damage == "not-gzip":
        return
    gz = gzip.compress(path.read_bytes(), mtime=0)
    path.write_bytes(gz[:len(gz) // 2] if damage == "truncated"
                     else gz[:10] + b"\xff" + gz[11:])


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "not-gzip"])
def test_train_damaged_gz_idx_exits_1(tmp_path, damage):
    p = tmp_path / "mini.idx.gz"
    _write_idx(p)
    _damage_gz(p, damage)
    out = tmp_path / "run"
    code, _, err = _main_quietly(["train", "--dataset", "idx", "--idx-images",
                                  str(p), "--out", str(out)])
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: damaged gzip data in") and str(p) in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "not-gzip"])
def test_eval_damaged_gz_idx_exits_1(tmp_path, monkeypatch, damage):
    # the run trains on an intact file, which is damaged afterwards
    p = tmp_path / "mini.idx.gz"
    _write_idx(p)
    p.write_bytes(gzip.compress(p.read_bytes(), mtime=0))
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--dataset", "idx", "--idx-images", p.name,
                 "--steps", "2", "--batch", "16", "--eval-samples", "32",
                 "--out", "idx_run"]) == 0
    p.write_bytes(gzip.decompress(p.read_bytes()))
    _damage_gz(p, damage)
    code, out, err = _main_quietly(["eval", "--out", "idx_run"])
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: damaged gzip data in") and str(p) in err


# how a run wrote its manifest while IDX label files were still an input
def _old_manifest(run_dir) -> str:
    run_dir.mkdir()
    text = manifest_text(RunConfig(out=str(run_dir))).replace(
        "idx_images = none\n", "idx_images = none\nidx_labels = none\n")
    (run_dir / "manifest.txt").write_text(text)
    return str(run_dir / "manifest.txt")


@pytest.mark.parametrize("argv, named", [
    (["train", "--config", "{manifest}", "--out", "{tmp}/rerun"],
     "'idx_labels'"),
    (["eval", "--out", "{tmp}/old"], "'idx_labels'"),
    (["train", *FAST, "--idx-labels", "x", "--out", "{tmp}/rerun"],
     "--idx-labels"),
    (["eval", "--config", "{manifest}"], "--config"),
], ids=["train-old-manifest", "eval-old-manifest", "train-idx-labels",
        "eval-config"])
def test_removed_inputs_exit_1(tmp_path, argv, named):
    manifest = _old_manifest(tmp_path / "old")
    before = sorted(tmp_path.rglob("*"))
    code, _, err = _main_quietly(
        [a.format(manifest=manifest, tmp=tmp_path) for a in argv])
    assert code == 1 and "Traceback" not in err
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


_NAN, _INF = float("nan"), float("inf")
_BAD_WEIGHT = st.sampled_from([-1.0, _NAN, _INF, -_INF])
_BAD_RATE = st.sampled_from([0.0, -1.0, _NAN, _INF])
_BAD_MOMENTUM = st.sampled_from([1.0, -0.5, _NAN, _INF])


def _widths(least, min_size):
    return st.lists(st.integers(least, 4), min_size=min_size, max_size=2).map(
        lambda ws: ",".join(map(str, ws)))


# key: (values kept small enough for a fast run, values a run cannot take);
# every key but the paths idx_images and out, each also a `train` flag
_FUZZ_KEYS = {
    "dataset": (st.sampled_from(["ring8", "grid25", "rings2"]),
                st.sampled_from(["nosuch", "idx"])),
    "kernel": (st.sampled_from(KERNEL_CHOICES),
               st.sampled_from(["poly", "cubic"])),
    "baseline": (st.sampled_from(["true", "false"]),
                 st.sampled_from(["yes", "1", ""])),
    "steps": (st.integers(1, 3), st.integers(-3, 0)),
    "batch": (st.integers(2, 8), st.integers(-3, 1) | st.just(10**6)),
    "seed": (st.integers(0, 3), st.integers(-3, -1)),
    "latent_dim": (st.integers(1, 3), st.integers(-3, 0) | st.just(2 * 10**8)),
    "d_steps_per_g": (st.integers(1, 2), st.integers(-3, 0)),
    "eval_interval": (st.integers(1, 3), st.integers(-3, 0)),
    "eval_samples": (st.integers(2, 16), st.integers(-3, 1) | st.just(10**14)),
    "alpha": (st.floats(0, 2), _BAD_WEIGHT),
    "beta": (st.floats(0, 2), _BAD_WEIGHT),
    "delta": (st.floats(0, 0.99), st.sampled_from([1.0, 1.5, -0.1, _NAN])),
    "gamma": (st.floats(0.1, 2), _BAD_RATE),
    "lr_g": (st.floats(1e-3, 0.1), _BAD_RATE),
    "lr_d": (st.floats(1e-3, 0.1), _BAD_RATE),
    "momentum_g": (st.floats(0, 0.95), _BAD_MOMENTUM),
    "momentum_d": (st.floats(0, 0.95), _BAD_MOMENTUM),
    "g_hidden": (_widths(1, 0), st.sampled_from(["0", "4,100000", "4," * 9])),
    "d_hidden": (_widths(2, 1), st.sampled_from(["", "4,1", "100000,4"])),
    "g_out_activation": (st.sampled_from(ACTIVATIONS), st.just("foo")),
}
# values no key's annotation reads, or that argparse reads as a missing value
_GARBLED = st.sampled_from(["", "x", "1.5.0", "1e", "0x10", "--", "-x",
                            "1,2", " "])


def _assert_clean_exit(code, err, out):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert not os.path.exists(out)
    finished = all(os.path.exists(os.path.join(out, name))
                   for name in ("manifest.txt", "generator.bin"))
    assert code == 0 or not finished


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_train_fuzz_over_config_space(data):
    bad = data.draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=1))
    lines = []
    for key, (good_values, bad_values) in _FUZZ_KEYS.items():
        value = data.draw(bad_values if key in bad else good_values)
        lines.append(f"{key} = {value}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "run")
        code, _, err = _main_quietly(["train", "--config", cfg, "--out", out])
        _assert_clean_exit(code, err, out)


def _main_quietly(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_train_fuzz_over_flag_space(data):
    bad = data.draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=1))
    garbled = data.draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS)),
                                max_size=1))
    argv = ["train"]
    for key, (good_values, bad_values) in _FUZZ_KEYS.items():
        if key in garbled:
            value = data.draw(_GARBLED)
        else:
            value = data.draw(bad_values if key in bad else good_values)
        argv += ["--" + key.replace("_", "-"), str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        code, _, err = _main_quietly([*argv, "--out", out])
        event(f"exit {code}")
        _assert_clean_exit(code, err, out)


class _Built(Exception):
    """Raised in place of training, carrying the RunConfig `train` built."""


def _train_config(argv, tmp):
    """The RunConfig `mmgan train argv` would train, or None if it exits 1.
    Runs land in tmp."""
    def stand_in(cfg, data, on_eval=None):
        raise _Built(cfg)

    with mock.patch("mmgan.cli.train", stand_in), \
            mock.patch.dict(os.environ, {"MMGAN_OUT": tmp}):
        try:
            code, _, err = _main_quietly(argv)
        except _Built as built:
            return built.args[0]
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    return None


_PATHS = st.sampled_from(["none", "", "a", "a/b.idx"])


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_flag_and_config_line_build_the_same_run(data):
    # one parser: `--key v` means what a `key = v` line means
    key = data.draw(st.sampled_from([f.name for f in
                                     dataclasses.fields(RunConfig)]))
    if key in _FUZZ_KEYS:
        good_values, bad_values = _FUZZ_KEYS[key]
        # a file line cannot spell surrounding blanks, and argparse reads
        # "--" as the end of the options, not as a value
        value = str(data.draw(good_values | bad_values | _GARBLED.filter(
            lambda v: v == v.strip() and v != "--")))
    else:
        value = data.draw(_PATHS)
    with tempfile.TemporaryDirectory() as tmp:
        if key == "out" and value not in ("none", ""):
            value = os.path.join(tmp, value)
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as f:
            f.write(f"{key} = {value}\n")
        from_flag = _train_config(
            ["train", "--" + key.replace("_", "-"), value], tmp)
        from_line = _train_config(["train", "--config", cfg], tmp)
    event("exit 1" if from_flag is None else "built")
    assert from_flag == from_line


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_fuzz") / "run"
    assert main(["train", *FAST, "--steps", "2", "--out", str(out)]) == 0
    return out


# --eval-samples allocates that many rows, so the counts it may take stay
# small; 10**14 is beyond the bound RunConfig sets
@settings(deadline=None, max_examples=100)
@given(st.data())
def test_eval_fuzz_over_flag_space(finished_run, data):
    argv = ["eval", "--out", str(finished_run)]
    for flag, values in (("--eval-samples",
                          st.integers(-3, 300) | st.just(10**14)),
                         ("--seed", st.integers(-3, 2 ** 70)),
                         ("--steps", st.integers(-3, 2 ** 70))):
        value = data.draw(st.none() | values | _GARBLED)
        if value is not None:
            argv += [flag, str(value)]
    code, out, err = _main_quietly(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        assert len(out.splitlines()) == 2
    else:
        assert out == "" and err.startswith("error:")


# generator.bin: a 16-byte file header, then per layer a 12-byte header,
# the weights and the bias (persist.py)
_FIRST_WEIGHT = 16 + 12


def _eval_copy(run, tmp, manifest=None, params=None) -> tuple:
    """`mmgan eval` on a copy of run, with the bytes given in place of its
    manifest.txt or generator.bin."""
    copy = os.path.join(tmp, "run")
    os.makedirs(copy, exist_ok=True)
    for name, data in (("manifest.txt", manifest), ("generator.bin", params)):
        with open(os.path.join(copy, name), "wb") as f:
            f.write((run / name).read_bytes() if data is None else data)
    return _main_quietly(["eval", "--out", copy])


def _assert_clean_eval(code, out, err):
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        assert len(out.splitlines()) == 2
    else:
        assert out == "" and err.startswith(("error:", "numerical abort:"))


def test_eval_nonfinite_saved_weight_exits_2(finished_run, tmp_path):
    params = bytearray((finished_run / "generator.bin").read_bytes())
    struct.pack_into("<d", params, _FIRST_WEIGHT, np.nan)
    code, out, err = _eval_copy(finished_run, str(tmp_path), params=params)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: cannot load parameters:")
    assert "non-finite" in err


def test_eval_overflowing_weights_exit_3(finished_run, tmp_path):
    # finite weights of 1e308 overflow in G's first layer
    net = load_network(finished_run / "generator.bin")
    params = bytearray((finished_run / "generator.bin").read_bytes())
    count = net.layers[0].weight.value.size
    struct.pack_into(f"<{count}d", params, _FIRST_WEIGHT, *[1e308] * count)
    code, out, err = _eval_copy(finished_run, str(tmp_path), params=params)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == "numerical abort: non-finite activation in g.layer0\n"


def test_eval_overflowing_samples_exit_3(finished_run, tmp_path):
    # G's last layer scaled by 1e200: the samples stay finite, and their
    # squares overflow in the sphere gaps
    net = load_network(finished_run / "generator.bin")
    for p in (net.layers[-1].weight, net.layers[-1].bias):
        p.value *= 1e200
    save_network(net, tmp_path / "scaled.bin")
    code, out, err = _eval_copy(finished_run, str(tmp_path),
                                params=(tmp_path / "scaled.bin").read_bytes())
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == "numerical abort: non-finite centroid_gap\n"


_SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308,
                                   1e200, 5e-324, 0.0]) | st.floats()
_PARAM_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("f64"), st.integers(0, 10**6), _SPECIAL_FLOATS),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(None))),
    min_size=1, max_size=4)


@settings(deadline=None, max_examples=100)
@given(mutations=_PARAM_MUTATIONS)
def test_eval_fuzz_over_mutated_params(finished_run, mutations):
    params = bytearray((finished_run / "generator.bin").read_bytes())
    for kind, at, value in mutations:
        if kind == "cut":
            del params[at % (len(params) + 1):]
        elif kind == "byte" and params:
            params[at % len(params)] = value
        elif kind == "f64" and len(params) >= 8:
            struct.pack_into("<d", params, at % (len(params) - 7), value)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _eval_copy(finished_run, tmp, params=bytes(params))
    _assert_clean_eval(code, out, err)


_CONFIG_KEYS = st.sampled_from([f.name for f in dataclasses.fields(RunConfig)])
_CONFIG_VALUES = st.sampled_from(["", "0", "-1", "10001", "1e308", "nan",
                                  "inf", "true", "none", "idx", "rbf",
                                  "8,8", "2,"]) | st.text(max_size=20)
_MANIFEST_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(None)),
    st.tuples(st.just("utf8"), st.integers(0, 10**6),
              st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"])),
    st.tuples(st.just("line"), st.integers(0, 10**6), st.tuples(
        _CONFIG_KEYS | st.text(max_size=12), _CONFIG_VALUES))),
    min_size=1, max_size=4)


@settings(deadline=None, max_examples=100)
@given(mutations=_MANIFEST_MUTATIONS)
def test_eval_fuzz_over_mutated_manifest(finished_run, mutations):
    manifest = bytearray((finished_run / "manifest.txt").read_bytes())
    for kind, at, value in mutations:
        if kind == "cut":
            del manifest[at % (len(manifest) + 1):]
        elif kind == "byte" and manifest:
            manifest[at % len(manifest)] = value
        elif kind == "utf8":  # bytes no UTF-8 text holds there
            i = at % (len(manifest) + 1)
            manifest[i:i] = value
        elif kind == "line":
            lines = manifest.splitlines(keepends=True)
            lines.insert(at % (len(lines) + 1),
                         f"{value[0]} = {value[1]}\n".encode())
            manifest = bytearray(b"".join(lines))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _eval_copy(finished_run, tmp, manifest=bytes(manifest))
    _assert_clean_eval(code, out, err)
