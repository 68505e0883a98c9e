"""Tests of the benchmark itself: tiny rounds of every workload pass their
checks, each check rejects a corrupted output, and the printed metrics
are the ones BENCHMARK.json declares.

    python -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import startup

startup.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from nswave import model, nsform, pipeline  # noqa: E402
from workloads import WORKLOADS, Round, make_config, round_ops, run_round  # noqa: E402

TINY = {
    "elliptic1d": dict(n_eta=8, epochs=2, n_export=2, n_operr=2),
    "transfer1d": dict(n_eta=8, epochs=2, n_export=2, n_operr=2),
    "elliptic2d": dict(n_eta=4, epochs=1, gen_calls=1, n_export=1,
                       n_operr=1),
}
DECLARED = json.loads((startup.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def pairs(name, seed=3):
    """One parameter draw with its sources and certified solutions."""
    cfg = make_config(startup.ROOT, tiny(name), seed)
    spec = cfg.problem
    eta = spec.sample_eta(seed)
    fs = np.stack([spec.sample_f(seed + j) for j in range(3)])
    return cfg, eta[None], fs[None], spec.solve_batch(eta, fs)[None]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_its_checks(name, tmp_path):
    wl = tiny(name)
    cfg = make_config(startup.ROOT, wl, 5)
    rnd = Round()
    run_round(cfg, wl, tmp_path, rnd, index=3)
    assert rnd.wrong == []
    assert rnd.done == round_ops(cfg, wl)


@pytest.mark.parametrize("name, check", [
    ("elliptic1d", checks.stencil_residuals),
    ("elliptic2d", checks.stencil_residuals),
    ("transfer1d", checks.transfer_residuals),
])
def test_residual_checks_reject_perturbed_u(name, check):
    cfg, eta, f, u = pairs(name)
    assert check(cfg.problem, eta, f, u)[0]
    bad = u.copy()
    bad.reshape(-1)[bad.size // 2] *= 1.0 + 1e-6
    assert not check(cfg.problem, eta, f, bad)[0]


def test_transfer_check_rejects_negative_u():
    cfg, eta, f, u = pairs("transfer1d")
    assert not checks.transfer_residuals(cfg.problem, eta, -f, -u)[0]


def test_training_check_rejects_no_progress_or_nan():
    m = pipeline.Metrics(train_error=0.4, test_error=0.4, operator_error=None,
                         epochs=1, stop_reason="max_epochs", wall_time=1.0,
                         loss_history=[1.0], train_error_history=[0.4],
                         test_error_history=[0.4])
    assert checks.training(m, 1.0)[0]
    assert not checks.training(m, 0.7)[0]
    m.loss_history = [float("nan")]
    assert not checks.training(m, 1.0)[0]


@pytest.fixture(scope="module")
def exported():
    cfg, eta, f, u = pairs("elliptic1d")
    mdl = model.MetaModel(cfg.model)
    g = model.export_operator(mdl, eta[0])
    return cfg, mdl, eta, f, u, g


def test_linearity_check_rejects_wrong_products_or_error(exported):
    cfg, mdl, eta, f, u, g = exported
    ss = pipeline.SampleSet(problem=cfg.problem, split="test", eta=eta, f=f,
                            u=u, eta_seeds=np.zeros(1), retries=np.zeros(1))
    evaluated = pipeline.evaluate(mdl, ss)
    assert checks.linearity(mdl, eta, f, u, [g], evaluated)[0]
    bad = g.copy()
    bad[3, 5] += 1e-6 * np.abs(g).max()
    assert not checks.linearity(mdl, eta, f, u, [bad], evaluated)[0]
    assert not checks.linearity(mdl, eta, f, u, [g], evaluated * 1.001)[0]


def test_symmetry_check_rejects_asymmetrized_g(exported):
    g = exported[-1]
    assert checks.symmetry([g])[0]
    bad = g.copy()
    bad[2, 7] += 1e-6 * np.abs(g).max()
    assert not checks.symmetry([bad])[0]


def test_operator_error_check_rejects_wrong_value(exported):
    cfg, mdl, eta, _, _, g = exported
    g_ref = checks.reference_operator(cfg.problem, eta[0])
    value = pipeline.operator_error(mdl, cfg.problem, eta)
    assert checks.operator_error([value], [g_ref], [g])[0]
    assert not checks.operator_error([value * 1.01], [g_ref], [g])[0]


@pytest.mark.parametrize("name", ["elliptic1d", "elliptic2d"])
def test_containment_check_rejects_a_wrong_fast_apply(name, monkeypatch):
    cfg, eta, f, _ = pairs(name)
    g_ref = checks.reference_operator(cfg.problem, eta[0])
    assert checks.containment(cfg.model, g_ref, f[0])[0]
    fast = nsform.apply if cfg.model.dim == 1 else nsform.apply_2d
    monkeypatch.setattr(nsform, fast.__name__,
                        lambda *a, **k: fast(*a, **k) * (1.0 + 1e-6))
    assert not checks.containment(cfg.model, g_ref, f[0])[0]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, key, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "elliptic1d", tiny("elliptic1d"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    meta, result = run.run("elliptic1d", 2, 0.0, bool(trace))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in DECLARED[key]]
    units = {m["name"]: m["unit"] for m in DECLARED[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert meta["seed"] == 2 and meta["preset"] == "schrodinger1d_desk"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(startup.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(startup.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "elliptic1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
