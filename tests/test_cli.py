"""End-to-end checks of the command line: artifacts, exit codes, reruns."""
import contextlib
import csv
import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import mmgan.trainer as trainer_mod
from mmgan.cli import main
from mmgan.config import (KERNEL_CHOICES, TRAIN_KERNELS, RunConfig,
                          manifest_text, parse_config_text)
from mmgan.neural import ACTIVATIONS
from mmgan.trainer import draw_eval_batch, score_samples
from mmgan.persist import load_network


FAST = ["--dataset", "ring8", "--steps", "60", "--batch", "16",
        "--eval-interval", "30", "--eval-samples", "64", "--seed", "5"]
HEADER = ("step,loss_g,loss_d,l_orig,manifold_term,radius_term,r_g,"
          "modes_covered,hq_fraction,centroid_gap,radius_gap")


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
], ids=lambda f: " ".join(f))
def test_train_rejects_bad_numeric_flag(tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["train", *FAST, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_kernel_choices_in_help(capsys):
    # training rejects poly, so train's --kernel does not offer it;
    # gradcheck still checks its gradients
    for command, choices in (("train", "{none,linear,rbf,exp}"),
                             ("gradcheck", "{none,linear,rbf,exp,poly}")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"--kernel {choices}" in capsys.readouterr().out


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
    assert main(["eval", "--out", str(out), "--samples", "0"]) == 1
    assert "empty evaluation" in capsys.readouterr().err
    # r_g, one of the scores, compares at least two samples
    assert main(["eval", "--out", str(out), "--samples", "1"]) == 1
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
    assert len(lines) == 10
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


def test_idx_training_smoke(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(80, 7, 7), dtype=np.uint8)
    p = tmp_path / "mini.idx"
    p.write_bytes(struct.pack(">IIII", 2051, 80, 7, 7) + imgs.tobytes())
    out = tmp_path / "run"
    code = main(["train", "--dataset", "idx", "--idx-images", str(p),
                 "--steps", "40", "--eval-interval", "20", "--batch", "16",
                 "--eval-samples", "32", "--out", str(out)])
    assert code == 0
    names = {q.name for q in out.iterdir()}
    assert "samples_40.csv" in names
    assert not any(n.endswith(".svg") for n in names)


@pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (100_000_000, 28, 28)],
                         ids=["u32-max", "100M-images"])
def test_train_rejects_oversized_idx_header(tmp_path, dims):
    p = tmp_path / "huge.idx"
    p.write_bytes(struct.pack(">IIII", 2051, *dims) + bytes(64))
    out = tmp_path / "run"
    code, _, err = _main_quietly(["train", "--dataset", "idx", "--idx-images",
                                  str(p), "--out", str(out)])
    assert code == 1 and "Traceback" not in err
    assert "truncated idx image payload" in err
    assert not out.exists()


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


# key: (values kept small enough for a fast run, values a run cannot take)
_FUZZ_KEYS = {
    "steps": (st.integers(1, 3), st.integers(-3, 0)),
    "batch": (st.integers(2, 8), st.integers(-3, 1)),
    "seed": (st.integers(0, 3), st.integers(-3, -1)),
    "latent_dim": (st.integers(1, 3), st.integers(-3, 0)),
    "d_steps_per_g": (st.integers(1, 2), st.integers(-3, 0)),
    "eval_interval": (st.integers(1, 3), st.integers(-3, 0)),
    "eval_samples": (st.integers(2, 16), st.integers(-3, 1)),
    "alpha": (st.floats(0, 2), _BAD_WEIGHT),
    "beta": (st.floats(0, 2), _BAD_WEIGHT),
    "delta": (st.floats(0, 0.99), st.sampled_from([1.0, 1.5, -0.1, _NAN])),
    "gamma": (st.floats(0.1, 2), _BAD_RATE),
    "lr_g": (st.floats(1e-3, 0.1), _BAD_RATE),
    "lr_d": (st.floats(1e-3, 0.1), _BAD_RATE),
    "momentum_g": (st.floats(0, 0.95), _BAD_MOMENTUM),
    "momentum_d": (st.floats(0, 0.95), _BAD_MOMENTUM),
    "g_hidden": (_widths(1, 0), st.just("0")),
    "d_hidden": (_widths(2, 1), st.sampled_from(["", "4,1"])),
    "g_out_activation": (st.sampled_from(ACTIVATIONS), st.just("foo")),
}


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_train_fuzz_over_config_space(data):
    bad = data.draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=1))
    lines = [
        f"dataset = {data.draw(st.sampled_from(['ring8', 'grid25', 'rings2']))}",
        f"kernel = {data.draw(st.sampled_from(KERNEL_CHOICES))}",
        f"baseline = {data.draw(st.sampled_from(['true', 'false']))}",
    ]
    for key, (good_values, bad_values) in _FUZZ_KEYS.items():
        value = data.draw(bad_values if key in bad else good_values)
        lines.append(f"{key} = {value}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "run")
        code = main(["train", "--config", cfg, "--out", out])
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert not os.path.exists(out)
        finished = all(os.path.exists(os.path.join(out, name))
                       for name in ("manifest.txt", "generator.bin"))
        assert code == 0 or not finished


# the _FUZZ_KEYS that `mmgan train` also takes as flags
_FLAG_KEYS = ("steps", "batch", "seed", "d_steps_per_g", "eval_interval",
              "eval_samples", "alpha", "beta", "delta", "gamma")
# values no flag's type parses, or that argparse reads as a missing value
_GARBLED = st.sampled_from(["", "x", "1.5.0", "1e", "0x10", "--", "-x",
                            "1,2", " "])


def _main_quietly(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_train_fuzz_over_flag_space(data):
    bad = data.draw(st.sets(st.sampled_from(_FLAG_KEYS), max_size=1))
    garbled = data.draw(st.sets(st.sampled_from(_FLAG_KEYS), max_size=1))
    argv = ["train",
            "--dataset", data.draw(st.sampled_from(["ring8", "grid25",
                                                    "rings2", "nosuch"])),
            "--kernel", data.draw(st.sampled_from([*TRAIN_KERNELS, "poly",
                                                   "cubic"]))]
    if data.draw(st.booleans()):
        argv.append("--baseline")
    for key in _FLAG_KEYS:
        good_values, bad_values = _FUZZ_KEYS[key]
        if key in garbled:
            value = data.draw(_GARBLED)
        else:
            value = data.draw(bad_values if key in bad else good_values)
        argv += ["--" + key.replace("_", "-"), str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        code, _, err = _main_quietly([*argv, "--out", out])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err
        if code == 1:
            assert not os.path.exists(out)
        finished = all(os.path.exists(os.path.join(out, name))
                       for name in ("manifest.txt", "generator.bin"))
        assert code == 0 or not finished


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_fuzz") / "run"
    assert main(["train", *FAST, "--steps", "2", "--out", str(out)]) == 0
    return out


# --samples allocates that many rows, so the drawn counts stay small
@settings(deadline=None, max_examples=100)
@given(st.data())
def test_eval_fuzz_over_flag_space(finished_run, data):
    argv = ["eval", "--out", str(finished_run)]
    for flag, good_values in (("--samples", st.integers(-3, 300)),
                              ("--seed", st.integers(-3, 2 ** 70)),
                              ("--step", st.integers(-3, 2 ** 70))):
        value = data.draw(st.none() | good_values | _GARBLED)
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
