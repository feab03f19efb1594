import pytest

from mmgan.config import (MAX_BATCH, MAX_HIDDEN_LAYERS, MAX_WIDTH, RunConfig,
                          manifest_text, parse_config_text, resolve_out_dir)
from mmgan.kernel import KernelSpec


def test_defaults_round_trip_through_manifest():
    cfg = RunConfig()
    back = parse_config_text(manifest_text(cfg))
    assert back == cfg


def test_non_default_round_trip():
    cfg = RunConfig(dataset="grid25", kernel="rbf", alpha=0.5, beta=0.1,
                    delta=0.99, gamma=0.25, steps=777, batch=32, seed=9,
                    g_hidden=(128, 64), d_hidden=(32, 8), baseline=True,
                    out="/tmp/somewhere")
    back = parse_config_text(manifest_text(cfg))
    assert back == cfg


def test_comments_and_blank_lines_ignored():
    text = "# hello\n\nsteps = 5\n  # indented comment\nseed = 3\n"
    cfg = parse_config_text(text)
    assert cfg.steps == 5 and cfg.seed == 3


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("stepz = 5\n")


def test_malformed_line_rejected():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("steps 5\n")


def test_overrides_win_over_file():
    cfg = parse_config_text("steps = 5\nseed = 1\n",
                            overrides={"steps": 9})
    assert cfg.steps == 9 and cfg.seed == 1


def test_bool_parsing_is_strict():
    assert parse_config_text("baseline = true\n").baseline is True
    with pytest.raises(ValueError, match="true or false"):
        parse_config_text("baseline = yes\n")


@pytest.mark.parametrize("line", [
    "steps = x", "alpha = 1.5.0", "g_hidden = 4,x", "baseline = yes"])
def test_unreadable_value_names_its_key(line):
    key = line.split()[0]
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_config_text(line + "\n")
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_config_text("", overrides={key: line.split("= ")[1]})


def test_validation():
    with pytest.raises(ValueError, match="unknown dataset"):
        RunConfig(dataset="ring9")
    with pytest.raises(ValueError, match="unknown kernel"):
        RunConfig(kernel="cubic")
    with pytest.raises(ValueError, match="idx_images"):
        RunConfig(dataset="idx")


@pytest.mark.parametrize("key, at_bound, over", [
    ("batch", MAX_BATCH, MAX_BATCH + 1),
    ("latent_dim", MAX_WIDTH, 200_000_000),
    ("g_hidden", (MAX_WIDTH, 1), (64, MAX_WIDTH + 1)),
    ("d_hidden", (8, MAX_WIDTH), (MAX_WIDTH + 1, 8)),
    ("g_hidden", (4,) * MAX_HIDDEN_LAYERS, (4,) * (MAX_HIDDEN_LAYERS + 1)),
    ("d_hidden", (4,) * MAX_HIDDEN_LAYERS, (4,) * (MAX_HIDDEN_LAYERS + 1)),
], ids=["batch", "latent_dim", "g_width", "d_width", "g_depth", "d_depth"])
def test_network_sizes_are_bounded(key, at_bound, over):
    # a config is checked, not built: these sizes are never allocated
    assert getattr(RunConfig(**{key: at_bound}), key) == at_bound
    with pytest.raises(ValueError, match=f"^({key}|hidden layer widths) must"):
        RunConfig(**{key: over})


def test_loss_config_mapping():
    lc = RunConfig(kernel="rbf", alpha=2.0, beta=0.5, gamma=0.1).loss_config()
    assert lc.kernel == KernelSpec("rbf", gamma=0.1)
    assert lc.alpha == 2.0 and lc.beta == 0.5
    assert RunConfig(kernel="none").loss_config().kernel is None
    # poly is not a kernel choice
    with pytest.raises(ValueError, match="poly"):
        RunConfig(kernel="poly")


def test_artifact_lines():
    text = manifest_text(RunConfig(), artifacts=["metrics.csv", "g.bin"])
    assert text.endswith("# artifact: metrics.csv\n# artifact: g.bin\n")
    # artifact comments must not break reparsing
    assert parse_config_text(text) == RunConfig()


def test_resolve_out_dir():
    assert resolve_out_dir(RunConfig(out="/x/y"), env={}) == "/x/y"
    assert resolve_out_dir(RunConfig(seed=3), env={}) == "runs/ring8-none-s3"
    assert (resolve_out_dir(RunConfig(kernel="rbf"), env={"MMGAN_OUT": "/o"})
            == "/o/ring8-rbf-s0")
    assert (resolve_out_dir(RunConfig(baseline=True), env={})
            == "runs/ring8-baseline-s0")


def test_float_values_round_trip_exactly():
    cfg = RunConfig(lr_g=0.1 + 0.2)  # 0.30000000000000004
    back = parse_config_text(manifest_text(cfg))
    assert back.lr_g == cfg.lr_g
