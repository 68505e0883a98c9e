"""Dataset generation and persistence, the training loop, and metrics.

A run is described by four blocks (problem / dataset / model / training),
loaded from JSON with unknown keys rejected; each field's type and range
are declared with the field and checked when the config is built.
Datasets are NSTF1 files (one per split) with a JSON sidecar carrying the
problem descriptor, the seed scheme and residual certification; every
persisted solution can be re-verified against the generating operator on
reload.

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
from .errors import (ConfigError, DataError, InferenceError, TrainingError,
                     check_fields, rule)
# export_operator is not called here; it stays imported because the
# benchmark's tracer patches `pipeline.export_operator`
from .model import MetaModel, ModelConfig, export_operator, learned_operator
from .solvers import ProblemSpec

RESIDUAL_TOL = 1e-10

#: largest smaller side on which power_norm2 forms the operator and takes
#: LAPACK's dense SVD; above it ARPACK takes the norm from products
DENSE_NORM_LIMIT = 256

#: parameter fields `evaluate` pushes through the model per forward pass
EVAL_CHUNK_ETAS = 32


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
    # the train split takes n_eta // 2 draws, so it needs two or more
    n_eta: int = rule(500, low=2)
    n_f: int = rule(5, low=1)
    seed: int = rule(7, low=0)

    def __post_init__(self):
        check_fields(self, "dataset")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = rule(1e-3, kind=float, above=0)
    batch_fraction: float = rule(0.01, kind=float, above=0)
    max_epochs: int = rule(500, low=1)
    patience: int = rule(50, low=0)
    min_improvement: float = rule(0.01, kind=float, low=0)
    seed: int = rule(0, low=0)
    target_test_error: float | None = rule(None, kind=float, above=0)
    operator_samples: int = rule(10, low=0)

    def __post_init__(self):
        check_fields(self, "training")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    dataset: DatasetConfig
    model: ModelConfig
    training: TrainConfig

    def __post_init__(self):
        if self.model.n != self.problem.n:
            raise ConfigError(
                f"model n={self.model.n} != problem n={self.problem.n}")
        if self.model.dim != self.problem.dim:
            raise ConfigError("model and problem dimensions differ")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {"problem", "dataset", "model", "training"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        return cls(problem=_from_dict(ProblemSpec, d.get("problem", {})),
                   dataset=_from_dict(DatasetConfig, d.get("dataset", {})),
                   model=_from_dict(ModelConfig, d.get("model", {})),
                   training=_from_dict(TrainConfig, d.get("training", {})))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path, overrides=()) -> RunConfig:
    """The run config in the JSON file at `path`, with 'dotted.key=value'
    overrides applied.  A missing file, or one that does not hold a JSON
    object, is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return RunConfig.from_dict(apply_overrides(raw, overrides))


def apply_overrides(d: dict, overrides: list[str]) -> dict:
    """Apply 'dotted.key=value' overrides, values parsed as JSON scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer of too many digits
            value = raw
        node = d
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part!r} is not "
                                  "an object")
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


def generate_dataset(cfg: RunConfig, out_dir, threads: int = 1) -> dict:
    """Generate, certify and persist both splits; returns a summary dict.

    Each draw is solved and certified against one operator inside
    `solvers.generate_sample`, so `threads` worker processes (no more
    than there are draws) share both the solves and the certification;
    nothing is written unless every residual is within RESIDUAL_TOL.
    Parameter draws are split half/half into train and test by index, so
    the splits never share an eta.  Per-sample seeds are a pure function
    of (dataset.seed, index), making the files bit-reproducible for any
    thread count.
    """
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_eta, n_f = cfg.dataset.n_eta, cfg.dataset.n_f
    base = cfg.dataset.seed
    jobs = [(cfg.problem, _eta_seed(base, i), _f_seeds(base, i, n_f))
            for i in range(n_eta)]
    workers = min(threads, n_eta)
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.starmap(solvers.generate_sample, jobs)
    else:
        results = [solvers.generate_sample(*job) for job in jobs]

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
        "problem": dataclasses.asdict(cfg.problem),
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
    the problem block read strictly, a split of at least one draw, splits
    that tile [0, n_eta), a certified `max_residual` within RESIDUAL_TOL,
    and the split's tensors as `_read_checked` holds them: exactly eta,
    f, u, eta_seeds and retries, shaped by the grid and the split's
    counts, all finite (else DataError).
    `check` also re-certifies every residual against its operator."""
    data_dir = Path(data_dir)
    path = data_dir / "dataset.json"
    with open(path) as fh:
        summary = json.load(fh)
    try:
        problem = _from_dict(ProblemSpec, summary["problem"])
        lo, hi = summary["splits"][split]
        (start, cut), (cut_test, end) = (summary["splits"][s]
                                         for s in ("train", "test"))
        n_eta, n_f = summary["n_eta"], summary["n_f"]
        worst = summary["max_residual"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ConfigError
        raise DataError(f"{path}: {exc!r}") from exc
    if not all(type(v) is int for v in (lo, hi, n_f)) or \
            not 0 <= lo < hi or n_f < 1:
        raise DataError(f"{path}: invalid splits.{split} {[lo, hi]} "
                        f"or n_f {n_f!r}")
    # the splits tile [0, n_eta): train first, test after it
    if type(n_eta) is not int or (start, cut_test, end) != (0, cut, n_eta):
        raise DataError(f"{path}: n_eta {n_eta!r} disagrees with splits "
                        f"{summary['splits']}")
    if type(worst) not in (int, float) or not 0 <= worst <= RESIDUAL_TOL:
        raise DataError(f"{path}: max_residual {worst!r} is not within "
                        f"{RESIDUAL_TOL:.0e}")
    grid = (problem.n,) * problem.dim
    tensors = _read_checked(data_dir / f"{split}.nstf", {
        "eta": (hi - lo,) + grid, "f": (hi - lo, n_f) + grid,
        "u": (hi - lo, n_f) + grid, "eta_seeds": (hi - lo,),
        "retries": (hi - lo,)})
    ss = SampleSet(problem=problem, split=split, **tensors)
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


def evaluate(mdl: MetaModel, ss: SampleSet) -> float:
    """Mean relative l2 solution error over every sample in the set."""
    errs = []
    for lo in range(0, ss.n_eta, EVAL_CHUNK_ETAS):
        hi = min(lo + EVAL_CHUNK_ETAS, ss.n_eta)
        u_hat = mdl.forward(ss.eta[lo:hi], ss.f[lo:hi])
        axes = tuple(range(2, u_hat.ndim))
        num = np.sqrt(((u_hat - ss.u[lo:hi]) ** 2).sum(axis=axes))
        den = np.sqrt((ss.u[lo:hi] ** 2).sum(axis=axes))
        errs.append((num / den).reshape(-1))
    return float(np.concatenate(errs).mean())


def power_norm2(mat, name: str = "an operator") -> float:
    """Spectral norm of a dense matrix or of a `LinearOperator`.  Up to
    DENSE_NORM_LIMIT on the smaller side an operator is formed (one
    `matmat` of the identity) and LAPACK `svdvals` takes the norm; above
    it ARPACK `svds` (k = 1, fixed random start) takes it from products.
    The two routes round differently, so moving the limit moves
    operator-error values (its timings are recorded in CHANGES.md).

    G is scaled by the power of two nearest max|G| (above the limit,
    max|G v0| of the start v0), so ARPACK's Gram operator neither over-
    nor underflows; the scaling is exact.  A non-finite entry or probe
    gives inf, an all-zero one 0; an ARPACK failure is an InferenceError
    that names the norm.
    """
    dense = min(mat.shape) <= DENSE_NORM_LIMIT
    if dense:
        if isinstance(mat, spla.LinearOperator):
            with np.errstate(invalid="ignore"):  # inf * 0: NaN, so inf
                mat = mat.matmat(np.eye(mat.shape[1]))
        top = np.max(np.abs(mat), initial=0.0)
    else:
        mat = spla.aslinearoperator(mat)
        # a random start: a constant vector lies in the null space of
        # divergence-form operators
        v0 = np.random.default_rng(0).standard_normal(min(mat.shape))
        tall = mat.shape[0] >= mat.shape[1]  # the product svds starts from
        top = np.max(np.abs(mat.matvec(v0) if tall else mat.rmatvec(v0)))
    if not np.isfinite(top):
        return np.inf
    if top == 0.0:
        return 0.0
    exponent = int(np.frexp(top)[1])
    if dense:
        return float(np.ldexp(sla.svdvals(np.ldexp(mat, -exponent))[0],
                              exponent))
    try:
        sigma = spla.svds(_scaled(mat, -exponent), k=1, v0=v0,
                          return_singular_vectors=False)[0]
    except spla.ArpackError as exc:
        raise InferenceError(f"ARPACK failed on the 2-norm of {name}: "
                             f"{exc}") from exc
    return float(np.ldexp(sigma, exponent))


def _scaled(op: spla.LinearOperator, exponent: int) -> spla.LinearOperator:
    """2**exponent * op, exact: the power of two is applied by `ldexp`
    to each product, so no factor over- or underflows on its own."""
    return spla.LinearOperator(
        op.shape, dtype=float,
        matvec=lambda x: np.ldexp(op.matvec(x), exponent),
        rmatvec=lambda x: np.ldexp(op.rmatvec(x), exponent))


def operator_error(mdl: MetaModel, problem: ProblemSpec,
                   etas: np.ndarray) -> float:
    """Mean over etas of ||G_ref - G_nn||_2 / ||G_ref||_2.

    G_ref is one factorization per draw (`ProblemSpec.solution_operator`)
    and G_nn the model's products with the collection computed once
    (`learned_operator`); `power_norm2` forms them or not by their size.
    The model's parameters and gradient accumulators are left as they
    were.
    """
    errs = []
    for eta in etas:
        g_ref = problem.solution_operator(eta)
        g_nn = learned_operator(mdl, eta)
        errs.append(power_norm2(g_ref - g_nn, "G_ref - G_nn")
                    / power_norm2(g_ref, "G_ref"))
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
    try:
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
    except InferenceError as exc:  # a non-finite forward pass
        raise TrainingError(f"{exc} at epoch {epoch}") from exc
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


def check_geometry(mdl: MetaModel, problem: ProblemSpec) -> None:
    """DataError unless the model's grid (n, dim) is the dataset's."""
    have = (mdl.cfg.n, mdl.cfg.dim)
    want = (problem.n, problem.dim)
    if have != want:
        raise DataError(f"model grid n={have[0]}, dim={have[1]} does not "
                        f"match the dataset's n={want[0]}, dim={want[1]}")


def load_checkpoint(ckpt_dir) -> MetaModel:
    """The checkpoint's model, checked on load (else DataError): model.json
    an object holding every ModelConfig field, each within its rule, the
    built model's parameter_count and iwt_tied, and no other key; and
    model.nstf's tensors as `_read_checked` holds them: exactly the
    model's parameters, each of its shape, all finite."""
    path = Path(ckpt_dir) / "model.json"
    with open(path) as fh:
        desc = json.load(fh)
    try:
        cfg = ModelConfig(**{f.name: desc[f.name]
                             for f in dataclasses.fields(ModelConfig)})
    except (KeyError, TypeError, ConfigError) as exc:  # TypeError: no dict
        raise DataError(f"{path}: {exc!r}") from exc
    mdl = MetaModel(cfg)
    want = mdl.describe()
    # json.dumps tells 280.0 from 280 and 1 from true
    if json.dumps(desc, sort_keys=True) != json.dumps(want, sort_keys=True):
        raise DataError(f"{path}: {desc} does not describe the model it "
                        f"builds, {want}")
    params = mdl.parameters()
    tensors = _read_checked(path.with_name("model.nstf"),
                            {k: v.shape for k, v in params.items()})
    for name, arr in tensors.items():
        params[name][...] = arr
    return mdl


def _read_checked(path, want: dict) -> dict:
    """The tensors of the NSTF file at `path`, which must be exactly the
    names of `want`, each of the shape `want` gives it, all finite; any
    other file is a DataError."""
    tensors = read_tensors(path)
    if set(tensors) != set(want):
        raise DataError(f"{path}: tensors {sorted(tensors)}, expected "
                        f"{sorted(want)}")
    for name, shape in want.items():
        if tensors[name].shape != shape:
            raise DataError(f"{path}: {name} has shape "
                            f"{tensors[name].shape}, expected {shape}")
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: {name} holds non-finite values")
    return tensors


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
