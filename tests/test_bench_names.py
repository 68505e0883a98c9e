"""The names the benchmark (`bench/`) reaches into `nswave` by.

Its tracer replaces public functions and methods by traced versions and
puts them back; its checks call the 2D nonstandard-form entry points and
`ProblemSpec.solve_batch(eta, fs)`.  A change that renames or drops one
of them fails here, and not only under `python -m pytest bench`.
"""

import importlib.util
from pathlib import Path

import numpy as np

from nswave import model, net, nsform, pipeline, solvers

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_names_the_bench_patches_and_calls():
    found = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(found)
    found.loader.exec_module(spans)
    owners = (model, net, pipeline, solvers, solvers.ProblemSpec,
              pipeline.SampleSet, model.MetaModel)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for owner, names in zip(owners, before):
            traced = [k for k, v in names.items() if vars(owner)[k] is not v]
            assert traced, f"nothing of {owner.__name__} is traced"
    finally:
        tracer.restore()
    for owner, names in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys(), owner.__name__
        assert all(after[k] is v for k, v in names.items()), owner.__name__

    # bench/checks.py selects the 2D nonstandard form by these names
    for name in ("build_nonstandard_2d", "truncate_2d", "apply_2d"):
        assert callable(getattr(nsform, name))
    # bench/run.py and bench/test_bench.py solve with two arguments
    spec = solvers.ProblemSpec(kind="schrodinger", n=16, eta_coarse=4)
    eta = spec.sample_eta(2)
    fs = np.stack([spec.sample_f(s) for s in (3, 4)])
    us = spec.solve_batch(eta, fs)
    assert us.shape == fs.shape
    assert np.max(spec.residual_batch(eta, fs, us)) < 1e-10
