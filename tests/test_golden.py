"""Byte identity of the desk presets at a micro budget.

Generating four draws per preset (`dataset.n_eta=4`) and training two
epochs (`training.max_epochs=2`) must give the checked-in sha256 of
`train.nstf` and `model.nstf`, of the dense learned operator at test
eta 0 (its float64 bytes, as `export_operator` returns it), and the
`float.hex` of the operator error over test etas 0-1.  A change that
moves these bits, knowingly, updates `GOLDEN` and says why.

The pipeline runs in a child process with `OPENBLAS_NUM_THREADS=1` set
for the child only.  This does not settle whether bits may depend on the
BLAS thread count: at two threads rte2d_desk generation already gives
another `train.nstf` (its LU of the 1024 x 1024 transfer system), and
this test neither fixes that nor checks it.

Run as a script, the module is that child: it prints the digests and
the library versions as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PRESETS = ("schrodinger1d_desk", "rte1d_desk", "schrodinger2d_desk",
           "rte2d_desk")
BUDGET = ("dataset.n_eta=4", "training.max_epochs=2")

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1",
            "numpy-blas": "scipy-openblas 0.3.31.188.0",
            "scipy-blas": "scipy-openblas 0.3.30"}
GOLDEN = {
    "schrodinger1d_desk": {
        "train.nstf": "41b92d09839d630808a3889bca6181c2"
                      "d64a013f11833867ed05b984d6a2bf22",
        "model.nstf": "efc5465def920b91c2f212ea5fdb16c5"
                      "97aff192b579d334bc47daa2d70564ec",
        "export": "316de2b1509735f2f9410f07ebfd7a1d"
                  "091d8433986f455d1e037c97359412bf",
        "operator_error": "0x1.1dc60be2bb51ep+0"},
    "rte1d_desk": {
        "train.nstf": "dbf09b0d9fa809a0b25c090e10dd5476"
                      "c22f5ca300a705709efa09839089a501",
        "model.nstf": "6de6f0712517a33882be87983f519fec"
                      "4644260f69bce7f8972198874c5bbfd6",
        "export": "c430c3fb423dba00e24367045056f4e5"
                  "965e7592fc7a08dbbadbeb87d270d2ee",
        "operator_error": "0x1.218fd424f2196p-2"},
    "schrodinger2d_desk": {
        "train.nstf": "6505bfc04f1e81f71c7c36de5818fe70"
                      "aa511ac4032a02558854c61122bd85e8",
        "model.nstf": "4a5740b227ad9cfcf34a8c16538f602c"
                      "7bfee88ea071cff20ef541c4b355b2df",
        "export": "25eec5f7a9967605bda23752bc70ed67"
                  "ad548882a53d6a7e9e5983cb1a604be5",
        "operator_error": "0x1.4270f7a419f0cp+1"},
    "rte2d_desk": {
        "train.nstf": "6b5202c753475138d7cefdd59cf23223"
                      "9724abca394f16d1e0eb7d0eee21a44a",
        "model.nstf": "a11ff217722c8ae0e2b793a10737b7f2"
                      "b43b923d0d7adf93eb1ae4b23a02e25a",
        "export": "5d151263a9c26b89733a1004ff259e99"
                  "0e2845ca52cbcaa5a262990ab90ca0fe",
        "operator_error": "0x1.1adb5665a9658p-1"},
}


def _versions() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy-blas": blas(np.show_config(mode="dicts")),
            "scipy-blas": blas(scipy.show_config(mode="dicts"))}


def _digests(preset: str, work: Path) -> dict:
    from nswave import pipeline as pl
    from nswave.model import MetaModel, export_operator

    def sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()
    cfg = pl.load_config(REPO / "configs" / f"{preset}.json", BUDGET)
    pl.generate_dataset(cfg, work / "data")
    train_set = pl.load_sampleset(work / "data", "train")
    test_set = pl.load_sampleset(work / "data", "test")
    mdl = MetaModel(cfg.model)
    pl.train(mdl, train_set, test_set, cfg.training)
    pl.save_checkpoint(mdl, work / "ckpt")
    err = pl.operator_error(mdl, test_set.problem, test_set.eta[:2])
    return {
        "train.nstf": sha256((work / "data" / "train.nstf").read_bytes()),
        "model.nstf": sha256((work / "ckpt" / "model.nstf").read_bytes()),
        "export": sha256(export_operator(mdl, test_set.eta[0]).tobytes()),
        "operator_error": float(err).hex()}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {p: _digests(p, Path(tmp) / p) for p in PRESETS}
    json.dump({"versions": _versions(), "digests": digests}, sys.stdout)


def test_desk_presets_reproduce_the_checked_in_bytes():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(REPO / "src"),
                             os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    moved = [f"{preset} {name}: expected {want}, got {got}"
             for preset, table in GOLDEN.items()
             for name, want in table.items()
             if (got := out["digests"][preset][name]) != want]
    assert not moved, (
        "bytes moved:\n  " + "\n  ".join(moved)
        + f"\ntable taken with {VERSIONS}\nthis run with {out['versions']}")


if __name__ == "__main__":
    main()
