import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nswave import cli, container

MICRO = {
    "problem": {"kind": "schrodinger", "n": 32, "eta_coarse": 4,
                "eta_scale": 10.0},
    "dataset": {"n_eta": 6, "n_f": 2, "seed": 3},
    "model": {"n": 32, "levels": 2, "alpha": 2, "depth": 2, "nb": 1, "p": 2,
              "padding": "periodic", "symmetric": True, "seed": 0},
    "training": {"learning_rate": 1e-3, "batch_fraction": 0.2,
                 "max_epochs": 2, "patience": 10, "seed": 1,
                 "operator_samples": 1},
}


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture()
def micro_config(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(json.dumps(MICRO))
    return path


def test_gen_data_deterministic_across_invocations(micro_config, tmp_path):
    rc = cli.main(["gen-data", "--config", str(micro_config),
                   "--out", str(tmp_path / "d1"), "--seed", "7"])
    assert rc == 0
    rc = cli.main(["gen-data", "--config", str(micro_config),
                   "--out", str(tmp_path / "d2"), "--seed", "7"])
    assert rc == 0
    for split in ("train", "test"):
        assert sha(tmp_path / "d1" / f"{split}.nstf") \
            == sha(tmp_path / "d2" / f"{split}.nstf")
    assert (tmp_path / "d1" / "run.json").exists()


def test_full_cli_cycle(micro_config, tmp_path):
    data = tmp_path / "data"
    ckpt = tmp_path / "ckpt"
    out = tmp_path / "eval"
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(micro_config),
                     "--data", str(data), "--out", str(ckpt)]) == 0
    assert (ckpt / "model.nstf").exists()
    assert (ckpt / "metrics.json").exists()
    assert (ckpt / "curves.csv").exists()
    assert (ckpt / "run.json").exists()
    metrics = json.load(open(ckpt / "metrics.json"))
    assert metrics["operator_error"] is not None

    assert cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--out", str(out), "--check"]) == 0
    ev = json.load(open(out / "metrics.json"))
    assert ev["test_error"] == pytest.approx(metrics["test_error"])

    op_file = tmp_path / "g.nstf"
    assert cli.main(["export-op", "--model", str(ckpt), "--data", str(data),
                     "--index", "0", "--out", str(op_file)]) == 0
    tensors = container.read_tensors(op_file)
    assert tensors["G"].shape == (32, 32)
    # symmetric mode: the exported operator is symmetric
    assert np.max(np.abs(tensors["G"] - tensors["G"].T)) < 1e-10


def test_train_and_eval_report_the_same_operator_error(micro_config,
                                                       tmp_path):
    """train measures the operator error against the dataset's problem, as
    eval does, whatever problem block its own config carries."""
    data, ckpt, out = tmp_path / "data", tmp_path / "ckpt", tmp_path / "ev"
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(micro_config),
                     "--data", str(data), "--out", str(ckpt),
                     "--set", "problem.kind=divergence",
                     "--set", "problem.eta_shift=3.0"]) == 0
    assert cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--out", str(out), "--operator-samples", "1"]) == 0
    trained = json.load(open(ckpt / "metrics.json"))["operator_error"]
    evaluated = json.load(open(out / "metrics.json"))["operator_error"]
    assert trained == pytest.approx(evaluated, rel=1e-12)


def test_config_error_exit_codes(tmp_path, micro_config):
    assert cli.main(["gen-data", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.json"
    raw = json.loads(json.dumps(MICRO))
    raw["model"]["mystery"] = 1
    bad.write_text(json.dumps(raw))
    assert cli.main(["gen-data", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    # overrides are validated too
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(tmp_path / "o"),
                     "--set", "model.unknown=3"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("override", [
    "dataset.n_eta=1", "dataset.n_eta=0", "dataset.n_f=0",
    "dataset.n_eta=2.5", "dataset.n_f=true", "dataset=3",
    "dataset.seed=-10000000", 'dataset.seed="x"', "dataset.seed=1.5",
    # more digits than Python converts to an int, so it stays a string
    pytest.param("dataset.n_eta=" + "9" * 5000, id="dataset.n_eta=9x5000")])
def test_degenerate_dataset_is_a_config_error(micro_config, tmp_path,
                                              capsys, override):
    rc = cli.main(["gen-data", "--config", str(micro_config),
                   "--out", str(tmp_path / "d"), "--set", override])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_seed_override_through_a_non_object_is_a_config_error(
        micro_config, tmp_path, capsys):
    rc = cli.main(["gen-data", "--config", str(micro_config),
                   "--out", str(tmp_path / "d"), "--set", "dataset=3",
                   "--seed", "7"])
    _assert_config_error(rc, capsys)


RTE_MICRO = {"kind": "rte", "n": 32, "interior": 28, "eta_coarse": 4,
             "eta_scale": 1.0, "f_coarse": 8}


@pytest.mark.parametrize("edit", [
    "no_kind", "mistyped_n", "mistyped_scale", "eta_coarse=0",
    "resample_limit=-1", "eta_max=0", "rte:path_samples=0",
    "rte:path_samples=-3", "rte:f_coarse=-4", "rte:f_coarse=0",
    "eta_scale=NaN", "eta_scale=Infinity", "eta_shift=-Infinity",
    "rte:eta_shift=NaN", "eta_scale=-10", "eta_scale=0", "eta_shift=-1",
    "rte:eta_shift=-5", "rte:eta_scale=-1"])
def test_malformed_problem_block_is_a_config_error(tmp_path, capsys, edit):
    raw = json.loads(json.dumps(MICRO))
    if edit.startswith("rte:"):
        raw["problem"] = dict(RTE_MICRO)
        edit = edit[4:]
    if edit == "no_kind":
        del raw["problem"]["kind"]
    elif edit == "mistyped_n":
        raw["problem"]["n"] = "32"
    elif edit == "mistyped_scale":
        raw["problem"]["eta_scale"] = [10.0]
    else:
        key, _, value = edit.partition("=")
        raw["problem"][key] = json.loads(value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    rc = cli.main(["gen-data", "--config", str(cfg),
                   "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def _assert_config_error(rc, capsys):
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("override", [
    'training.learning_rate="x"', "training.max_epochs=2.5",
    "training.target_test_error=[0.1]", "training.batch_fraction=0",
    "training.batch_fraction=Infinity", "training.learning_rate=-0.001",
    "training.learning_rate=NaN", "training.seed=-1", "model.seed=-1",
    "training.operator_samples=-1", "--operator-samples=-3",
    "training.patience=-3", "training.min_improvement=NaN",
    "training.target_test_error=-1", "model.init_noise=NaN"])
def test_mistyped_training_value_is_a_config_error(micro_config, tmp_path,
                                                   capsys, override):
    if override.startswith("--"):  # the eval flag of the same name
        argv = ["eval", "--model", str(tmp_path / "ck"), override]
    else:
        argv = ["train", "--config", str(micro_config), "--set", override]
    rc = cli.main(argv + ["--data", str(tmp_path / "d"),
                          "--out", str(tmp_path / "ck")])
    _assert_config_error(rc, capsys)


@pytest.mark.parametrize("levels", [10**30, 2**62])
def test_huge_level_count_is_a_config_error(micro_config, tmp_path, capsys,
                                            levels):
    # rejected by the config, before 1 << levels overflows or exhausts memory
    rc = cli.main(["train", "--config", str(micro_config),
                   "--set", f"model.levels={levels}",
                   "--data", str(tmp_path / "d"),
                   "--out", str(tmp_path / "ck")])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: model.n=32 is not divisible by 2^levels, "
                   f"levels={levels}\n")


def test_out_of_memory_is_a_config_error(monkeypatch, capsys):
    # a run too large for the host fails in numpy with the size it asked for
    size = "Unable to allocate 447. GiB for an array with shape (1, 2)"

    def too_large():
        raise MemoryError(size)

    monkeypatch.setattr(cli.checks, "run_all", too_large)
    rc = cli.main(["verify"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory:") and size in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc,shown", [
    (MemoryError(), "out of memory: an allocation failed"),
    # numpy's error for a shape too large to index: not a lack of memory
    (OverflowError("array is too big"),
     "a size too large to index: array is too big")],
    ids=["bare", "overflow"])
def test_allocation_failure_is_a_config_error(monkeypatch, capsys, exc,
                                              shown):
    def too_large():
        raise exc

    monkeypatch.setattr(cli.checks, "run_all", too_large)
    assert cli.main(["verify"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {shown}\n"


def test_overflowing_size_is_not_reported_as_out_of_memory(
        micro_config, tmp_path, capsys):
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(tmp_path / "d")]) == 0
    # a column count that fits in 64 bits, whose arrays' byte size does
    # not, would make numpy raise ValueError("array is too big")
    for alpha in ("100000000000000000000", "500000000000000000"):
        rc = cli.main(["train", "--config", str(micro_config),
                       "--set", f"model.alpha={alpha}",
                       "--data", str(tmp_path / "d"),
                       "--out", str(tmp_path / "ck")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: a size too large to index:")
        assert "out of memory" not in err and "Traceback" not in err


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00", b"3"],
                         ids=["syntax", "binary", "not-an-object"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    rc = cli.main(["gen-data", "--config", str(path),
                   "--out", str(tmp_path / "d")])
    _assert_config_error(rc, capsys)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_gen_data_needs_a_positive_thread_count(micro_config, tmp_path,
                                                capsys, threads):
    rc = cli.main(["gen-data", "--config", str(micro_config),
                   "--out", str(tmp_path / "d"), "--threads", threads])
    _assert_config_error(rc, capsys)
    assert not (tmp_path / "d").exists()


def test_data_error_exit_code(micro_config, tmp_path):
    assert cli.main(["train", "--config", str(micro_config),
                     "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "ck")]) == cli.EXIT_DATA


def test_training_divergence_exit_code(micro_config, tmp_path, capsys):
    data = tmp_path / "d"
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(data)]) == 0
    # 1e30 overflows the loss; 1e300 makes the forward pass non-finite
    for rate in ("1e30", "1e300"):
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["train", "--config", str(micro_config),
                           "--data", str(data), "--out", str(tmp_path / "ck"),
                           "--set", f"training.learning_rate={rate}"])
        assert rc == cli.EXIT_TRAINING
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("training diverged: ")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_arpack_failure_exits_4_naming_the_norm(data_and_ckpt, micro_config,
                                                tmp_path, monkeypatch,
                                                capsys, command):
    import scipy.sparse.linalg as spla

    from nswave import pipeline

    def stuck(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       [], [])
    # the micro grid (32 points) then takes the matrix-free ARPACK path
    monkeypatch.setattr(pipeline, "DENSE_NORM_LIMIT", 16)
    monkeypatch.setattr(spla, "svds", stuck)
    data, ckpt = data_and_ckpt
    out = str(tmp_path / "out")
    argv = {"train": ["train", "--config", str(micro_config),
                      "--data", str(data), "--out", out],
            "eval": ["eval", "--model", str(ckpt), "--data", str(data),
                     "--out", out, "--operator-samples", "1"]}[command]
    assert cli.main(argv) == cli.EXIT_TRAINING
    err = capsys.readouterr().err
    assert err.startswith("inference failed: ARPACK failed on the 2-norm "
                          "of G_ref - G_nn")
    assert "Traceback" not in err


def test_override_changes_effective_config(micro_config, tmp_path):
    data = tmp_path / "d"
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(data), "--set", "dataset.n_eta=4"]) == 0
    summary = json.load(open(data / "dataset.json"))
    assert summary["n_eta"] == 4
    run = json.load(open(data / "run.json"))
    assert run["config"]["dataset"]["n_eta"] == 4


def test_verify_subcommand_passes():
    assert cli.main(["verify"]) == 0


def test_shipped_presets_parse():
    from nswave import pipeline as pl
    cfg_dir = Path(__file__).resolve().parents[1] / "configs"
    presets = sorted(cfg_dir.glob("*.json"))
    assert {p.stem for p in presets} >= {
        "schrodinger1d_desk", "schrodinger1d_paper", "divergence1d_desk",
        "schrodinger2d_desk", "rte1d_desk", "rte2d_desk"}
    for preset in presets:
        cfg = pl.load_config(preset)
        assert cfg.model.n == cfg.problem.n


# -- malformed artifacts exit 3 without a traceback ----------------------------

@pytest.fixture()
def data_and_ckpt(micro_config, tmp_path):
    """A micro dataset and an untrained checkpoint that fits it."""
    from nswave import model, pipeline
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(micro_config),
                     "--out", str(data)]) == 0
    ckpt = tmp_path / "ckpt"
    pipeline.save_checkpoint(model.MetaModel(model.ModelConfig(
        **MICRO["model"])), ckpt)
    return data, ckpt


def _assert_data_error(rc, capsys):
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("keep", [20, 200])
def test_truncated_dataset_is_a_data_error(data_and_ckpt, tmp_path, capsys,
                                           keep):
    data, ckpt = data_and_ckpt
    path = data / "test.nstf"
    path.write_bytes(path.read_bytes()[:keep])
    rc = cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                   "--out", str(tmp_path / "ev")])
    _assert_data_error(rc, capsys)


@pytest.mark.parametrize("edit", [
    "unknown", "missing", "invalid", "type", "parameter_count",
    "parameter_count_float", "no_parameter_count", "iwt_tied", "iwt_tied_int"])
def test_malformed_model_json_is_a_data_error(data_and_ckpt, tmp_path,
                                              capsys, edit):
    data, ckpt = data_and_ckpt
    desc = json.loads((ckpt / "model.json").read_text())
    if edit == "unknown":
        desc["bogus"] = 1
    elif edit == "missing":
        del desc["nb"]
    elif edit == "invalid":
        desc["p"] = 9
    elif edit == "parameter_count":
        desc["parameter_count"] += 1
    elif edit == "parameter_count_float":
        desc["parameter_count"] = float(desc["parameter_count"])
    elif edit == "no_parameter_count":
        del desc["parameter_count"]
    elif edit == "iwt_tied":
        desc["iwt_tied"] = not desc["iwt_tied"]
    elif edit == "iwt_tied_int":
        desc["iwt_tied"] = int(desc["iwt_tied"])
    else:
        desc["levels"] = "2"
    (ckpt / "model.json").write_text(json.dumps(desc))
    rc = cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                   "--out", str(tmp_path / "ev")])
    _assert_data_error(rc, capsys)


@pytest.mark.parametrize("name,value", [
    ("convnet0.0.weight", np.nan),   # ReLU maps it to a finite output
    ("fwt0.weight", np.nan),         # reads as a training divergence
    ("fwt0.weight", np.inf)])
def test_non_finite_checkpoint_parameter_is_a_data_error(
        data_and_ckpt, tmp_path, capsys, name, value):
    data, ckpt = data_and_ckpt
    tensors = container.read_tensors(ckpt / "model.nstf")
    tensors[name].reshape(-1)[0] = value
    container.write_tensors(ckpt / "model.nstf", tensors)
    out = tmp_path / "ev"
    rc = cli.main(["eval", "--model", str(ckpt), "--data", str(data),
                   "--out", str(out)])
    _assert_data_error(rc, capsys)
    assert not out.exists()


@pytest.mark.parametrize("model_cfg", [
    {"dim": 2},                  # same n, other dimension
    {"n": 64, "levels": 3}])     # same dimension, other grid
@pytest.mark.parametrize("command", ["eval", "export-op"])
def test_checkpoint_geometry_must_match_dataset(data_and_ckpt, tmp_path,
                                                capsys, model_cfg, command):
    from nswave import model, pipeline
    data, _ = data_and_ckpt
    ckpt = tmp_path / "other"
    pipeline.save_checkpoint(model.MetaModel(model.ModelConfig(
        **{**MICRO["model"], **model_cfg})), ckpt)
    out = tmp_path / ("ev" if command == "eval" else "g.nstf")
    rc = cli.main([command, "--model", str(ckpt), "--data", str(data),
                   "--out", str(out)])
    _assert_data_error(rc, capsys)
    assert not out.exists()


def test_training_on_a_dataset_of_another_grid_is_a_data_error(
        data_and_ckpt, tmp_path, capsys):
    data, _ = data_and_ckpt
    raw = json.loads(json.dumps(MICRO))
    raw["problem"]["n"] = raw["model"]["n"] = 64
    raw["model"]["levels"] = 3
    cfg = tmp_path / "n64.json"
    cfg.write_text(json.dumps(raw))
    rc = cli.main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "ck64")])
    _assert_data_error(rc, capsys)


def _corrupt_dataset(data, case):
    """Break one thing in a generated dataset's sidecar or test split."""
    summary = json.loads((data / "dataset.json").read_text())
    tensors = container.read_tensors(data / "test.nstf")
    if case == "unknown_key":
        summary["problem"]["bogus"] = 1
    elif case == "invalid_kind":
        summary["problem"]["kind"] = "laplace"
    elif case == "mistyped_scale":
        summary["problem"]["eta_scale"] = "10"
    elif case == "no_kind":
        del summary["problem"]["kind"]
    elif case == "no_problem":
        del summary["problem"]
    elif case == "not_an_object":
        summary = [summary]
    elif case.startswith("missing_"):
        del tensors[case[len("missing_"):]]
    elif case == "grid":
        tensors["u"] = tensors["u"][..., :16]
    elif case == "split":
        tensors["eta_seeds"] = tensors["eta_seeds"][:-1]
    elif case == "empty_split":
        hi = summary["splits"]["test"][1]
        summary["splits"]["test"] = [hi, hi]
        tensors = {name: arr[:0] for name, arr in tensors.items()}
    elif case == "sources":
        tensors["f"] = tensors["f"][:, :1]
    elif case.startswith("max_residual_"):
        edit = case[len("max_residual_"):]
        if edit == "missing":
            del summary["max_residual"]
        else:  # a value that claims more than certification allows
            summary["max_residual"] = {"above": 1.0, "nan": float("nan"),
                                       "neginf": -float("inf")}[edit]
    elif case == "no_n_eta":
        del summary["n_eta"]
    elif case == "n_eta":
        summary["n_eta"] += 2
    elif case == "extra_tensor":
        tensors["bogus"] = tensors["retries"]
    elif case == "eta_seeds_nan":
        tensors["eta_seeds"][-1] = np.nan
    elif case == "retries_inf":
        tensors["retries"][-1] = np.inf
    else:
        name, value = case.split("_")
        tensors[name][-1, ..., 5] = float(value)
    (data / "dataset.json").write_text(json.dumps(summary))
    container.write_tensors(data / "test.nstf", tensors)


@pytest.mark.parametrize("case", [
    "unknown_key", "invalid_kind", "mistyped_scale", "no_kind",
    "no_problem", "not_an_object", "missing_eta", "missing_f", "missing_u",
    "missing_eta_seeds", "missing_retries", "grid", "split", "empty_split",
    "sources", "eta_nan", "f_inf", "u_nan", "max_residual_missing",
    "max_residual_above", "max_residual_nan", "max_residual_neginf",
    "no_n_eta", "n_eta", "extra_tensor", "eta_seeds_nan", "retries_inf"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_dataset_is_a_data_error(data_and_ckpt, micro_config,
                                           tmp_path, capsys, case, command):
    data, ckpt = data_and_ckpt
    _corrupt_dataset(data, case)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--config", str(micro_config)]
    else:
        argv = ["eval", "--model", str(ckpt)]
    rc = cli.main(argv + ["--data", str(data), "--out", str(out)])
    _assert_data_error(rc, capsys)
    assert not out.exists()
