"""Dataset generation and persistence, the training loop, and metrics.

A run is described by four blocks (problem / dataset / model / training),
loaded from JSON with unknown keys rejected.  Datasets are NSTF1 files
(one per split) with a JSON sidecar carrying the problem descriptor, the
seed scheme and residual certification; every persisted solution can be
re-verified against the generating operator on reload.

Training minimizes the mean squared solution error with Nadam over
minibatches whose size is a fixed fraction of the training sample count;
the test error is tracked every epoch and training stops on a relative
plateau, an optional target, or the epoch cap.  Everything is
deterministic given the seeds in the config.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import net, solvers
from .container import read_tensors, write_tensors
from .errors import ConfigError, DataError, TrainingError
from .model import MetaModel, ModelConfig, export_operator
from .solvers import ProblemSpec

RESIDUAL_TOL = 1e-10

#: largest smaller side for which power_norm2 takes the dense SVD path
DENSE_NORM_LIMIT = 128


# -- configuration ---------------------------------------------------------------

def _from_dict(cls, d: dict):
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {d!r}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {cls.__name__} keys: {missing}")
    return cls(**d)


@dataclass(frozen=True)
class DatasetConfig:
    n_eta: int = 500
    n_f: int = 5
    seed: int = 7

    def validate(self) -> "DatasetConfig":
        # the train split takes n_eta // 2 draws, so it needs two or more
        for name, low in (("n_eta", 2), ("n_f", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < low):
                raise ConfigError(f"dataset.{name} must be an integer "
                                  f">= {low}, got {value!r}")
        return self


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_fraction: float = 0.01
    max_epochs: int = 500
    patience: int = 50
    min_improvement: float = 0.01
    seed: int = 0
    target_test_error: float | None = None
    operator_samples: int = 10

    def validate(self) -> "TrainConfig":
        number = float | int
        for name, kind in (("learning_rate", number),
                           ("batch_fraction", number), ("max_epochs", int),
                           ("patience", int), ("min_improvement", number),
                           ("seed", int), ("target_test_error", number | None),
                           ("operator_samples", int)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"training.{name} has invalid value "
                                  f"{value!r}")
        if self.max_epochs < 1:
            raise ConfigError("need max_epochs >= 1")
        for name in ("learning_rate", "batch_fraction", "target_test_error"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ConfigError(f"training.{name} must be finite and > 0, "
                                  f"got {value!r}")
        if not 0 <= self.min_improvement < np.inf:
            raise ConfigError(f"training.min_improvement must be finite and "
                              f">= 0, got {self.min_improvement!r}")
        for name in ("seed", "operator_samples", "patience"):
            if getattr(self, name) < 0:
                raise ConfigError(f"training.{name} must be >= 0, "
                                  f"got {getattr(self, name)!r}")
        return self


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    dataset: DatasetConfig
    model: ModelConfig
    training: TrainConfig

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {"problem", "dataset", "model", "training"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        cfg = cls(problem=_from_dict(ProblemSpec, d.get("problem", {})),
                  dataset=_from_dict(DatasetConfig, d.get("dataset", {})),
                  model=_from_dict(ModelConfig, d.get("model", {})),
                  training=_from_dict(TrainConfig, d.get("training", {})))
        return cfg.validate()

    def validate(self) -> "RunConfig":
        self.problem.validate()
        self.dataset.validate()
        self.model.validate()
        self.training.validate()
        if self.model.n != self.problem.n:
            raise ConfigError(
                f"model n={self.model.n} != problem n={self.problem.n}")
        if self.model.dim != self.problem.dim:
            raise ConfigError("model and problem dimensions differ")
        return self

    def to_dict(self) -> dict:
        return {"problem": dataclasses.asdict(self.problem),
                "dataset": dataclasses.asdict(self.dataset),
                "model": dataclasses.asdict(self.model),
                "training": dataclasses.asdict(self.training)}


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Apply 'dotted.key=value' overrides, values parsed as JSON scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return d


# -- sample sets --------------------------------------------------------------------

@dataclass
class SampleSet:
    problem: ProblemSpec
    split: str
    eta: np.ndarray        # (n_eta, spatial..)
    f: np.ndarray          # (n_eta, n_f, spatial..)
    u: np.ndarray
    eta_seeds: np.ndarray  # effective seeds after any resampling
    retries: np.ndarray

    @property
    def n_eta(self) -> int:
        return self.eta.shape[0]

    @property
    def n_f(self) -> int:
        return self.f.shape[1]

    def max_residual(self) -> float:
        """Largest relative residual over every (eta, f) pair, NaN if any
        is NaN; each draw's sources share one operator, built here anew,
        so a reload checks the stored data independently of generation."""
        per_draw = [np.max(self.problem.residual_batch(eta, fs, us))
                    for eta, fs, us in zip(self.eta, self.f, self.u)]
        return float(np.max(per_draw, initial=0.0))


def _eta_seed(base: int, i: int) -> int:
    return base + 1_000_003 * (i + 1)


def _f_seeds(base: int, i: int, n_f: int) -> list[int]:
    return [_eta_seed(base, i) + 300_000 + j for j in range(n_f)]


def _gen_one(args):
    spec_dict, eta_seed, f_seeds = args
    spec = ProblemSpec(**spec_dict)
    return solvers.generate_sample(spec, eta_seed, f_seeds)


def generate_dataset(cfg: RunConfig, out_dir, threads: int = 1) -> dict:
    """Generate, certify and persist both splits; returns a summary dict.

    Each draw is solved and certified against one operator inside
    `solvers.generate_sample`, so `threads` worker processes share both
    the solves and the certification; nothing is written unless every
    residual is within RESIDUAL_TOL.  Parameter draws are split
    half/half into train and test by index, so the splits never share an
    eta.  Per-sample seeds are a pure function of (dataset.seed, index),
    making the files bit-reproducible for any thread count.
    """
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    cfg = cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_eta, n_f = cfg.dataset.n_eta, cfg.dataset.n_f
    base = cfg.dataset.seed
    spec_dict = dataclasses.asdict(cfg.problem)
    jobs = [(spec_dict, _eta_seed(base, i), _f_seeds(base, i, n_f))
            for i in range(n_eta)]
    if threads > 1:
        with Pool(threads) as pool:
            results = pool.map(_gen_one, jobs)
    else:
        results = [_gen_one(j) for j in jobs]

    etas = np.stack([r[0] for r in results])
    fs = np.stack([r[1] for r in results])
    us = np.stack([r[2] for r in results])
    seeds = np.array([r[3]["eta_seed"] for r in results], dtype=float)
    retries = np.array([r[3]["retries"] for r in results], dtype=float)
    worst = float(np.max([r[3]["max_residual"] for r in results]))
    if not worst <= RESIDUAL_TOL:
        raise DataError(f"generation residual {worst:.3e} above tolerance")

    n_train = n_eta // 2
    for name, sl in (("train", slice(0, n_train)),
                     ("test", slice(n_train, n_eta))):
        write_tensors(out / f"{name}.nstf", {
            "eta": etas[sl], "f": fs[sl], "u": us[sl],
            "eta_seeds": seeds[sl], "retries": retries[sl]})

    summary = {
        "problem": spec_dict,
        "n_eta": n_eta,
        "n_f": n_f,
        "seed": base,
        "seed_scheme": "eta: seed + 1000003*(i+1); f: eta_seed + 300000 + j; "
                       "resampling bumps the eta seed by 1",
        "splits": {"train": [0, n_train], "test": [n_train, n_eta]},
        "max_residual": worst,
        "total_retries": int(retries.sum()),
    }
    with open(out / "dataset.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def load_sampleset(data_dir, split: str, check: bool = False) -> SampleSet:
    """One split of a dataset, checked on load against its dataset.json:
    the problem block read strictly, a split of at least one draw, every
    tensor present and shaped by the grid and the split's counts, and eta,
    f and u finite (else DataError).
    `check` also re-certifies every residual against its operator."""
    data_dir = Path(data_dir)
    path = data_dir / "dataset.json"
    with open(path) as fh:
        summary = json.load(fh)
    try:
        problem = _from_dict(ProblemSpec, summary["problem"]).validate()
        lo, hi = summary["splits"][split]
        n_f = summary["n_f"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ConfigError
        raise DataError(f"{path}: {exc!r}") from exc
    if not all(type(v) is int for v in (lo, hi, n_f)) or \
            not 0 <= lo < hi or n_f < 1:
        raise DataError(f"{path}: invalid splits.{split} {[lo, hi]} "
                        f"or n_f {n_f!r}")
    path = data_dir / f"{split}.nstf"
    tensors = read_tensors(path)
    grid = (problem.n,) * problem.dim
    want = {"eta": (hi - lo,) + grid, "f": (hi - lo, n_f) + grid,
            "u": (hi - lo, n_f) + grid, "eta_seeds": (hi - lo,),
            "retries": (hi - lo,)}
    for name, shape in want.items():
        if name not in tensors:
            raise DataError(f"{path}: no tensor {name!r}")
        if tensors[name].shape != shape:
            raise DataError(f"{path}: {name} has shape "
                            f"{tensors[name].shape}, expected {shape}")
        if name in ("eta", "f", "u") and \
                not np.all(np.isfinite(tensors[name])):
            raise DataError(f"{path}: {name} holds non-finite values")
    ss = SampleSet(problem=problem, split=split,
                   **{name: tensors[name] for name in want})
    if check:
        worst = ss.max_residual()
        if not worst <= RESIDUAL_TOL:
            raise DataError(
                f"{split} split fails residual check: {worst:.3e}")
    return ss


# -- metrics -----------------------------------------------------------------------

@dataclass
class Metrics:
    train_error: float
    test_error: float
    operator_error: float | None
    epochs: int
    stop_reason: str
    wall_time: float
    loss_history: list = field(default_factory=list)
    train_error_history: list = field(default_factory=list)
    test_error_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Metrics":
        return _from_dict(cls, d)

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        with open(out / "metrics.json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        with open(out / "curves.csv", "w") as fh:
            fh.write("epoch,loss,train_error,test_error\n")
            for e, (lo, tr, te) in enumerate(zip(
                    self.loss_history, self.train_error_history,
                    self.test_error_history)):
                fh.write(f"{e},{lo:.10e},{tr:.10e},{te:.10e}\n")


def evaluate(mdl: MetaModel, ss: SampleSet, chunk_etas: int = 32) -> float:
    """Mean relative l2 solution error over every sample in the set."""
    errs = []
    for lo in range(0, ss.n_eta, chunk_etas):
        hi = min(lo + chunk_etas, ss.n_eta)
        u_hat, _ = mdl.forward_with_tape(ss.eta[lo:hi], ss.f[lo:hi])
        axes = tuple(range(2, u_hat.ndim))
        num = np.sqrt(((u_hat - ss.u[lo:hi]) ** 2).sum(axis=axes))
        den = np.sqrt((ss.u[lo:hi] ** 2).sum(axis=axes))
        errs.append((num / den).reshape(-1))
    return float(np.concatenate(errs).mean())


def power_norm2(mat: np.ndarray) -> float:
    """Spectral norm of a dense matrix: LAPACK `svdvals` while the smaller
    side is at most DENSE_NORM_LIMIT, ARPACK `svds` above it.

    Measured with one BLAS thread on a shared 2-vCPU host, for n x n
    Gaussian matrices: the dense SVD is faster up to n = 128 (1.3 vs 1.9
    ms) and ARPACK from about n = 192 on (2.7 vs 2.9 ms; 17 vs 40 ms at
    n = 512; the dense path takes 0.35 s at n = 1024).  Both are exact
    to rounding also where the top singular values cluster.

    The call runs on G scaled by the power of two nearest max|G|, so the
    Gram operator ARPACK iterates on neither overflows nor underflows;
    that scaling is exact, so the result equals the unscaled one wherever
    that one is representable.  A non-finite entry gives inf.
    """
    top = np.max(np.abs(mat), initial=0.0)
    if not np.isfinite(top):
        return np.inf
    if top == 0.0:
        return 0.0
    exponent = int(np.frexp(top)[1])
    mat = np.ldexp(mat, -exponent)
    if min(mat.shape) <= DENSE_NORM_LIMIT:
        sigma = sla.svdvals(mat)[0]
    else:
        # a random start: a constant vector lies in the null space of
        # divergence-form operators
        v0 = np.random.default_rng(0).standard_normal(min(mat.shape))
        sigma = spla.svds(mat, k=1, v0=v0, return_singular_vectors=False)[0]
    return float(np.ldexp(sigma, exponent))


def operator_error(mdl: MetaModel, problem: ProblemSpec,
                   etas: np.ndarray) -> float:
    """Mean relative spectral-norm error of the exported operator."""
    errs = []
    for eta in etas:
        g_ref = problem.reference_matrix(eta)
        g_nn = export_operator(mdl, eta)
        errs.append(power_norm2(g_ref - g_nn) / power_norm2(g_ref))
    return float(np.mean(errs))


# -- training -----------------------------------------------------------------------

def train(mdl: MetaModel, train_set: SampleSet, test_set: SampleSet,
          tcfg: TrainConfig) -> Metrics:
    """Nadam minimization of the mean squared solution error.

    Each step takes the next `batch_fraction` of the (eta, f) pairs in a
    per-epoch permutation and runs the model on exactly those pairs: the
    eta ConvNets and the f path once per drawn pair, so an eta drawn
    twice in one step is evaluated twice.
    """
    tcfg.validate()
    rng = np.random.default_rng(tcfg.seed)
    n_f = train_set.n_f
    n_samples = train_set.n_eta * n_f
    if n_samples == 0:
        raise ConfigError("the train split holds no (eta, f) pairs")
    bs = max(1, round(tcfg.batch_fraction * n_samples))
    state = net.NadamState(learning_rate=tcfg.learning_rate)
    loss_hist, train_hist, test_hist = [], [], []
    best = np.inf
    stall = 0
    stop_reason = "max_epochs"
    t0 = time.time()
    epoch = 0
    for epoch in range(1, tcfg.max_epochs + 1):
        perm = rng.permutation(n_samples)
        loss_sum = 0.0
        for lo in range(0, n_samples, bs):
            sel = perm[lo:lo + bs]
            i_idx, j_idx = np.divmod(sel, n_f)
            u_hat, tape = mdl.forward_with_tape(
                train_set.eta[i_idx], train_set.f[i_idx, j_idx][:, None])
            diff = u_hat - train_set.u[i_idx, j_idx][:, None]
            with np.errstate(over="ignore"):  # inf loss = divergence signal
                loss = float((diff ** 2).sum() / sel.size)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} (step {lo // bs})")
            mdl.zero_grads()
            mdl.backward(tape, 2.0 * diff / sel.size)
            net.nadam_step(mdl.parameters(), mdl.gradients(), state)
            loss_sum += loss * sel.size
        loss_hist.append(loss_sum / n_samples)
        train_hist.append(evaluate(mdl, train_set))
        test_hist.append(evaluate(mdl, test_set))
        test_eps = test_hist[-1]
        if test_eps < best * (1.0 - tcfg.min_improvement):
            best = test_eps
            stall = 0
        else:
            stall += 1
        if tcfg.target_test_error and test_eps <= tcfg.target_test_error:
            stop_reason = "target_reached"
            break
        if stall >= tcfg.patience:
            stop_reason = "plateau"
            break
    return Metrics(train_error=train_hist[-1], test_error=test_hist[-1],
                   operator_error=None, epochs=epoch,
                   stop_reason=stop_reason, wall_time=time.time() - t0,
                   loss_history=loss_hist, train_error_history=train_hist,
                   test_error_history=test_hist)


# -- checkpoints ----------------------------------------------------------------------

def save_checkpoint(mdl: MetaModel, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensors(out / "model.nstf", mdl.parameters())
    with open(out / "model.json", "w") as fh:
        json.dump(mdl.describe(), fh, indent=2, sort_keys=True)


def _checkpoint_config(desc, path) -> ModelConfig:
    """The ModelConfig a checkpoint's model.json describes, read strictly:
    every field present, no unknown key, and values `validate` accepts."""
    if not isinstance(desc, dict):
        raise DataError(f"{path}: expected a JSON object")
    desc = {k: v for k, v in desc.items()
            if k not in ("parameter_count", "iwt_tied")}
    missing = {f.name for f in dataclasses.fields(ModelConfig)} - set(desc)
    if missing:
        raise DataError(f"{path}: missing ModelConfig keys {sorted(missing)}")
    try:
        return _from_dict(ModelConfig, desc).validate()
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc


def check_geometry(mdl: MetaModel, problem: ProblemSpec) -> None:
    """DataError unless the model's grid (n, dim) is the dataset's."""
    have = (mdl.cfg.n, mdl.cfg.dim)
    want = (problem.n, problem.dim)
    if have != want:
        raise DataError(f"model grid n={have[0]}, dim={have[1]} does not "
                        f"match the dataset's n={want[0]}, dim={want[1]}")


def load_checkpoint(ckpt_dir) -> MetaModel:
    ckpt_dir = Path(ckpt_dir)
    with open(ckpt_dir / "model.json") as fh:
        desc = json.load(fh)
    mdl = MetaModel(_checkpoint_config(desc, ckpt_dir / "model.json"))
    tensors = read_tensors(ckpt_dir / "model.nstf")
    params = mdl.parameters()
    if set(tensors) != set(params):
        raise DataError("checkpoint parameter names do not match the "
                        "architecture descriptor")
    for name, arr in tensors.items():
        if params[name].shape != arr.shape:
            raise DataError(f"checkpoint shape mismatch for {name}")
        params[name][...] = arr
    return mdl


# -- run metadata -----------------------------------------------------------------------

def write_run_json(out_dir, config: dict, extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10,
                              cwd=Path(__file__).parent).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        desc = None
    payload = {"config": config, "git_describe": desc,
               "written_at_unix": time.time()}
    if extra:
        payload.update(extra)
    with open(out / "run.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
