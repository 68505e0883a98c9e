#!/usr/bin/env python3
"""The nswave benchmark: one workload end to end through the public API.

    python3 bench/run.py --workload elliptic1d --seed 1 --seconds 25 --trace 0

Runs whole rounds of the pipeline (see workloads.py) until `--seconds`
have passed, checks every stage's output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, taken as medians
over the rounds at reference host speed (hostspeed.py).  With
`--trace 1` the first round runs untraced and the rest traced; the
metrics are the per-layer ones, per traced round.  The
line before it holds the run's metadata, which also goes with the
metrics to `bench/out/<workload>-seed<seed>-trace<t>/run.json`.
"""

import startup

startup.prepare()  # pins BLAS before NumPy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from nswave import net, wavelets  # noqa: E402
from workloads import WORKLOADS, Round, make_config, round_ops, run_round  # noqa: E402

ROOT = startup.ROOT
SETUP_PROBES = 5    # fresh interpreters per run for setup_s
APPLY_REPS = 20     # single-vector applies per method in the comparison
PROBE_TIMEOUT_S = 60


def median(values) -> float:
    return float(statistics.median(values))


def git_describe() -> str | None:
    """`git describe --always --dirty` of the checkout, or None when it is
    not a git work tree (git may not look above it)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def measure_setup(workload: str, seed: int, burst) -> list[tuple]:
    """(interpreter start to ready, import, reference burst) seconds of
    fresh probes, run one at a time."""
    out = []
    for _ in range(SETUP_PROBES):
        ref = burst()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "startup.py"), workload,
             str(seed)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.close()
            if proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.append((ready, json.loads(line)["import_s"], ref))
    return out


def apply_costs(burst, cfg, mdl, eta, f, g_nn, g_ref) -> dict:
    """Per-matvec cost of the learned apply (precomputed collection), the
    fast nonstandard-form apply, dense `G @ f` and the reference solve,
    one vector at a time at the workload's grid, at reference speed."""
    mc = cfg.model
    filt = wavelets.daubechies_filter(mc.p)
    l0 = int(np.log2(mc.n)) - mc.levels
    build, truncate, apply = checks.nonstandard_ops(mc.dim)
    t0 = time.perf_counter()
    ns = build(g_ref, filt, l0)
    build_s = time.perf_counter() - t0
    ns = truncate(ns, mc.nb)
    coll = mdl.collection(eta)
    fv = f.reshape(-1)

    def us_per_call(fn) -> float:
        refs, times = [burst() for _ in range(3)], []
        for _ in range(APPLY_REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e6 * median(times) * hostspeed.scale(refs)

    return {
        "nsform.build_nonstandard_s": (
            build_s * hostspeed.scale([burst() for _ in range(3)]), "s"),
        "nsform.apply_us_per_matvec": (us_per_call(
            lambda: apply(ns, f, filt, padding=mc.padding)), "us"),
        "apply.model_us_per_matvec": (us_per_call(
            lambda: mdl.forward(eta, f, collection=coll)), "us"),
        "apply.dense_us_per_matvec": (us_per_call(lambda: g_nn @ fv), "us"),
        "apply.solve_us_per_matvec": (us_per_call(
            lambda: cfg.problem.solve_batch(eta, f[None])), "us"),
    }


# units of the end-to-end metrics measured per round
PER_ROUND = {
    "total_s": "s",
    "gen.pairs_per_s": "pairs/s",
    "train.samples_per_s": "samples/s",
    "train.step_ms": "ms",
    "eval.samples_per_s": "samples/s",
    "export.ops_per_s": "ops/s",
    "operr.s_per_eta": "s",
    "ckpt.roundtrip_s": "s",
}


def round_values(cfg, wl, r: Round, scaled: bool = True) -> dict:
    """The round's end-to-end figures, with each stage call's seconds at
    reference speed (see hostspeed.py) or, unscaled, as measured."""
    scales = hostspeed.call_scales(r.calls, r.refs) if scaled \
        else [1.0] * len(r.calls)
    sec = {}
    for (name, t0, t1), ki in zip(r.calls, scales):
        ki = ki ** 0.5 if name in wl.memory_stages else ki
        sec.setdefault(name, []).append((t1 - t0) * ki)
        if name == "train":
            train_scale = ki
    pairs = cfg.dataset.n_eta * cfg.dataset.n_f
    used = cfg.training.max_epochs * r.info["n_train"] * cfg.dataset.n_f
    return {
        "total_s": sum(sum(v) for v in sec.values()),
        "gen.pairs_per_s": pairs / median(sec["gen"]),
        "train.samples_per_s": used / sec["train"][0],
        "train.step_ms": 1e3 * median(np.diff(r.info["steps"]))
        * train_scale,
        "eval.samples_per_s": pairs / sum(sec["eval"]),
        "export.ops_per_s": len(sec["export"]) / sum(sec["export"]),
        "operr.s_per_eta": median(sec["operr"]),
        "ckpt.roundtrip_s": median(np.add(sec["save"], sec["restore"])),
    }


def end_to_end(per_round: list[dict], setup) -> dict:
    """Set-up as the median of the probes, the rest as medians over the
    rounds, all at reference speed (see hostspeed.py)."""
    ready, _, refs = zip(*setup)
    out = {"setup_s": (median(ready) * hostspeed.scale(refs), "s")}
    for name, unit in PER_ROUND.items():
        out[name] = (median(v[name] for v in per_round), unit)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(cfg, wl, tracer, traced: list[Round], plain: list[Round],
              setup, burst) -> dict:
    """Per traced round; times at reference speed, by the scale of all
    traced rounds' bursts."""
    n = len(traced)
    bursts = [b for r in traced for _, b in r.refs]
    k = hostspeed.scale(bursts) / n
    total, own, calls, counts = tracer.summary()
    t = lambda name: total.get(name, 0.0) * k  # noqa: E731
    s = lambda name: own.get(name, 0.0) * k  # noqa: E731
    c = lambda name: calls.get(name, 0) / n  # noqa: E731
    ev = tracer.by_context("pipeline.evaluate", ("pipeline.train",))
    fw = tracer.by_context("model.forward",
                           ("pipeline.train", "pipeline.evaluate"))
    kern = tracer.by_context("solvers.kernel", ("pipeline.generate_dataset",))
    used_pairs = (cfg.training.max_epochs * traced[0].info["n_train"]
                  * cfg.dataset.n_f)
    traced_total = median(round_values(cfg, wl, r)["total_s"]
                          for r in traced)
    out = {
        "solvers.sample_s": (t("solvers.sample"), "s"),
        "solvers.kernel_s": (t("solvers.kernel"), "s"),
        "solvers.kernel_calls": (c("solvers.kernel"), "count"),
        "solvers.kernel_calls_per_draw": (
            kern.get("pipeline.generate_dataset", (0,))[0]
            / (n * cfg.dataset.n_eta), "ratio"),
        "solvers.spectral_radius_s": (t("solvers.spectral_radius"), "s"),
        "solvers.solve_batch_s": (t("solvers.solve_batch"), "s"),
        "solvers.residual_s": (t("solvers.residual"), "s"),
        "solvers.residual_calls": (c("solvers.residual"), "count"),
        "solvers.reference_matrix_s": (t("solvers.reference_matrix"), "s"),
        "solvers.retries": (median(r.info["retries"] for r in traced),
                            "count"),
        "pipeline.max_residual_s": (t("pipeline.max_residual"), "s"),
        "pipeline.generate_dataset_self_s": (
            s("pipeline.generate_dataset"), "s"),
        "pipeline.train_self_s": (s("pipeline.train"), "s"),
        "pipeline.evaluate_in_train_s": (
            ev.get("pipeline.train", (0, 0.0))[1] * k, "s"),
        "pipeline.evaluate_s": (ev.get(None, (0, 0.0))[1] * k, "s"),
        "pipeline.f_pairs_per_used_pair": (
            fw.get("pipeline.train", (0, 0.0, 0.0))[2] / (n * used_pairs),
            "ratio"),
        "pipeline.power_norm2_s": (t("pipeline.power_norm2"), "s"),
        "pipeline.power_norm2_calls": (c("pipeline.power_norm2"), "count"),
        "pipeline.checkpoint_save_s": (t("pipeline.save_checkpoint"), "s"),
        "pipeline.checkpoint_load_s": (t("pipeline.load_checkpoint"), "s"),
        "container.write_s": (t("container.write"), "s"),
        "container.write_bytes": (counts["container.write"] / n, "B"),
        "container.read_s": (t("container.read"), "s"),
        "container.read_bytes": (counts["container.read"] / n, "B"),
        "model.eta_to_C_s": (t("model.eta_to_C"), "s"),
        "model.forward_self_s": (s("model.forward"), "s"),
        "model.backward_self_s": (s("model.backward"), "s"),
        "model.forward_calls": (c("model.forward"), "count"),
        "model.f_pairs": (counts["model.forward"] / n, "count"),
        "model.export_operator_s": (t("model.export_operator"), "s"),
    }
    for layer in ("eta_conv", "pool", "fwt", "iwt"):
        for way in ("forward", "backward"):
            out[f"net.{layer}.{way}_s"] = (t(f"net.{layer}.{way}"), "s")
    out["net.nadam_s"] = (t("net.nadam"), "s")
    out["net.nadam_calls"] = (c("net.nadam"), "count")
    _, imports, refs = zip(*setup)
    out["setup.import_s"] = (median(imports) * hostspeed.scale(refs), "s")
    out["host.burst_ms"] = (1e3 * median(bursts), "ms")
    out["trace.total_s"] = (traced_total, "s")
    out["trace.overhead_s"] = (traced_total - median(
        round_values(cfg, wl, r)["total_s"] for r in plain), "s")
    out.update(apply_costs(burst, cfg, *traced[-1].info["operators"]))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[workload]
    cfg = make_config(ROOT, wl, seed)
    run_dir = ROOT / "bench" / "out" / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    burst = hostspeed.Burst()
    setup = measure_setup(wl.name, seed, burst)

    steps = []
    nadam = net.nadam_step

    def stamped(*args, **kwargs):  # one timestamp per optimizer step
        steps.append(time.perf_counter())
        return nadam(*args, **kwargs)

    net.nadam_step = stamped
    tracer = spans.Tracer()
    planned = round_ops(cfg, wl)
    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    try:
        while (len(rounds) < 1 + trace
               or time.perf_counter() - start < seconds):
            traced = trace and len(rounds) > 0
            if traced and len(rounds) == 1:
                spans.install(tracer)
            rnd = Round(traced=traced, burst=burst)
            steps.clear()
            try:
                run_round(cfg, wl, run_dir, rnd, len(rounds),
                          tracer if traced else None)
            except Exception:  # counted as failed operations, reported
                traceback.print_exc(file=sys.stderr)
            rnd.mark()
            attempted += planned
            failed += planned - rnd.done
            rnd.info["steps"] = list(steps)
            rounds.append(rnd)
    finally:
        tracer.restore()
        net.nadam_step = nadam

    whole = [r for r in rounds if r.done == planned]
    plain = [r for r in whole if not r.traced]
    traced = [r for r in whole if r.traced]
    per_round = [round_values(cfg, wl, r) for r in plain]
    raw_rounds = [round_values(cfg, wl, r, scaled=False) for r in plain]
    if not plain or (trace and not traced):
        raise SystemExit("no round ran to its end; nothing to report")
    if trace:
        metrics = per_layer(cfg, wl, tracer, traced, plain, setup, burst)
        tracer.dump(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end(per_round, setup)
    wrong = [w for r in rounds for w in r.wrong]
    for w in wrong:
        print(f"check failed: {w}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    meta = {
        "workload": wl.name, "preset": wl.preset, "seed": seed,
        "grid": [cfg.problem.n] * cfg.problem.dim, "draws": cfg.dataset.n_eta,
        "epochs": cfg.training.max_epochs, "run_seconds": seconds,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "blas_threads": startup.BLAS_THREADS,
        "git_describe": git_describe(),
        "python": platform.python_version(), "numpy": np.__version__,
        "checks": rounds[-1].info.get("checks", {}),
        "setup_probes": setup, "per_round": per_round,
        "per_round_raw": raw_rounds,
        "round_scale": [hostspeed.scale([b for _, b in r.refs])
                        for r in plain],
    }
    with open(run_dir / "run.json", "w") as fh:
        json.dump({"config": cfg.to_dict(), "benchmark": meta,
                   "result": result}, fh, indent=2)
    for sub in ("data", "ckpt"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)
    return meta, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    meta, result = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
