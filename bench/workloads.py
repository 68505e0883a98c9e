"""The benchmark's workloads and one round of the pipeline they run.

A round is the CLI's order of work through the public API --
`generate_dataset`, `load_sampleset`, `train`, `save_checkpoint` /
`load_checkpoint`, `evaluate`, `export_operator`, `operator_error` --
with the benchmark's checks after the stages.  The data a round
generates is a pure function of the workload and the seed; round r
exports the next test etas in turn, so the rounds of a run cover
several.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from nswave import model, pipeline


CKPT_CALLS = 5   # save/load round trips per round; one takes milliseconds


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n_eta: int      # parameter draws, split half train / half test
    epochs: int     # fixed training budget
    gen_calls: int  # generate_dataset calls per round (1 unless it is short)
    n_export: int   # test etas exported per round
    n_operr: int    # test etas given to operator_error (a prefix of those)
    why: str
    # stages scaled by the square root of the host-speed factor (see
    # hostspeed.py): they stream large arrays, so their time follows
    # memory bandwidth about as much as the compute speed the burst sees
    memory_stages: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("elliptic1d", "schrodinger1d_desk", 500, 1, 1, 16, 16,
             "desk-size 1D Schrodinger data; training dominates, and about "
             "4/5 of the f-path pairs a step computes are masked away"),
    Workload("transfer1d", "rte1d_desk", 40, 2, 1, 8, 8,
             "slab transfer with dense kernels, eigvals and a kernel rebuild "
             "per certified pair; generation dominates; zero-padding model"),
    Workload("elliptic2d", "schrodinger2d_desk", 8, 2, 4, 1, 1,
             "2D Schrodinger: Conv2d, 2D blocks and interleave; export pushes "
             "1024 unit sources and operator_error runs power iteration",
             memory_stages=("export", "operr")),
)}


def make_config(root: Path, wl: Workload, seed: int) -> pipeline.RunConfig:
    """The shipped preset with the benchmark's draw count, epoch budget
    and seed, set the way `--set` overrides do on the command line."""
    raw = json.loads((root / "configs" / f"{wl.preset}.json").read_text())
    raw = pipeline.apply_overrides(raw, [
        f"dataset.n_eta={wl.n_eta}", f"dataset.seed={seed}",
        f"training.max_epochs={wl.epochs}", "training.target_test_error=null"])
    return pipeline.RunConfig.from_dict(raw)


def round_ops(cfg: pipeline.RunConfig, wl: Workload) -> int:
    """Operations one round attempts: stage calls plus checks."""
    stages = (wl.gen_calls + 2 + 1 + 1 + 2 * CKPT_CALLS + 2 + wl.n_export
              + wl.n_operr)
    checked = 7 + (cfg.problem.kind != "rte") * 2
    return stages + checked


@dataclass
class Round:
    """What one round measured and found."""
    traced: bool = False
    burst: object = None    # hostspeed.Burst, timed around each stage call
    calls: list = field(default_factory=list)   # (stage, start, end)
    refs: list = field(default_factory=list)    # (time, burst seconds)
    done: int = 0                                # operations run to their end
    wrong: list = field(default_factory=list)    # checks that failed
    info: dict = field(default_factory=dict)

    def stage(self, name: str, fn, *args, **kwargs):
        self.mark()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((name, t0, time.perf_counter()))
        self.done += 1
        return out

    def mark(self) -> None:
        """Time one reference burst; one precedes every stage call and one
        follows the last, so each call is bracketed by two."""
        if self.burst is not None:
            t0 = time.perf_counter()
            self.refs.append((t0, self.burst()))

    def check(self, name: str, tracer, fn, *args):
        with _quiet(tracer):
            ok, detail = fn(*args)
        self.info.setdefault("checks", {})[name] = detail
        if not ok:
            self.wrong.append(f"{name}: {detail}")
        self.done += 1


def run_round(cfg: pipeline.RunConfig, wl: Workload, out: Path,
              rnd: Round, index: int = 0, tracer=None) -> None:
    """Round `index` of the pipeline into `out`, recorded in `rnd`.  It
    exports and measures the operator error of the next test etas in
    turn, so the rounds of a run average over several.  An exception
    propagates; the caller counts what was left undone."""
    data, ckpt = out / "data", out / "ckpt"
    problem = cfg.problem
    for _ in range(wl.gen_calls):
        summary = rnd.stage("gen", pipeline.generate_dataset, cfg, data,
                            threads=1)
    rnd.info["retries"] = summary["total_retries"]
    train_set = rnd.stage("load", pipeline.load_sampleset, data, "train")
    test_set = rnd.stage("load", pipeline.load_sampleset, data, "test")
    rnd.info["n_train"] = train_set.n_eta
    residuals = checks.transfer_residuals if problem.kind == "rte" \
        else checks.stencil_residuals
    for ss in (train_set, test_set):
        rnd.check(f"residuals.{ss.split}", tracer, residuals, problem,
                  ss.eta, ss.f, ss.u)

    mdl = rnd.stage("build", model.MetaModel, cfg.model)
    with _quiet(tracer):
        initial = pipeline.evaluate(mdl, test_set)
    metrics = rnd.stage("train", pipeline.train, mdl, train_set, test_set,
                        cfg.training)
    rnd.check("training", tracer, checks.training, metrics, initial)

    for _ in range(CKPT_CALLS):
        rnd.stage("save", pipeline.save_checkpoint, mdl, ckpt)
        loaded = rnd.stage("restore", pipeline.load_checkpoint, ckpt)
    rnd.check("checkpoint", tracer, _same_parameters, mdl, loaded)

    errors = [rnd.stage("eval", pipeline.evaluate, loaded, ss)
              for ss in (train_set, test_set)]
    rnd.info["errors"] = errors
    rnd.check("final_error", tracer, _same_value, errors[1],
              metrics.test_error)

    sel = (index * wl.n_export + np.arange(wl.n_export)) % test_set.n_eta
    ops = [rnd.stage("export", model.export_operator, loaded, test_set.eta[i])
           for i in sel]
    exported = pipeline.SampleSet(
        problem=problem, split="test", eta=test_set.eta[sel],
        f=test_set.f[sel], u=test_set.u[sel],
        eta_seeds=test_set.eta_seeds[sel], retries=test_set.retries[sel])
    with _quiet(tracer):
        evaluated = pipeline.evaluate(loaded, exported)
    rnd.check("linearity", tracer, checks.linearity, loaded, exported.eta,
              exported.f, exported.u, ops, evaluated)

    reported = [rnd.stage("operr", pipeline.operator_error, loaded, problem,
                          test_set.eta[i:i + 1])
                for i in sel[:wl.n_operr]]
    rnd.info["operator_error"] = reported
    with _quiet(tracer):
        g_refs = [checks.reference_operator(problem, test_set.eta[i])
                  for i in sel[:wl.n_operr]]
    rnd.check("operator_error", tracer, checks.operator_error, reported,
              g_refs, ops)
    if problem.kind != "rte":
        rnd.check("symmetry", tracer, checks.symmetry, ops)
        rnd.check("containment", tracer, checks.containment, cfg.model,
                  g_refs[0], exported.f[0])
    rnd.info["operators"] = (loaded, exported.eta[0], exported.f[0, 0],
                             ops[0], g_refs[0])


def _quiet(tracer):
    """Inputs the checks compute stay out of the trace."""
    return tracer.paused() if tracer else contextlib.nullcontext()


def _same_parameters(a, b):
    pa, pb = a.parameters(), b.parameters()
    same = pa.keys() == pb.keys() and all(
        np.array_equal(pa[k], pb[k]) for k in pa)
    return same, f"{len(pa)} tensors restored bit-exactly: {same}"


def _same_value(a: float, b: float):
    return a == b, f"evaluate on the restored model {a:.6e}, train {b:.6e}"
