"""Byte identity of the desk presets at a micro budget.

Generating four draws per preset (`dataset.n_eta=4`) and training two
epochs (`training.max_epochs=2`) must give the checked-in sha256 of
`train.nstf` and `model.nstf`, of the dense learned operator at test
eta 0 (its float64 bytes, as `export_operator` returns it), and the
`float.hex` of the operator error over test etas 0-1.  A change that
moves these bits, knowingly, updates `GOLDEN` and says why.

The pipeline runs in a child process with `OPENBLAS_NUM_THREADS` set
for the child only.  The table is taken at one thread.  Elliptic
generation does not depend on the BLAS thread count, so the two
Schrodinger presets' `train.nstf` is also checked at two threads.  Transfer
generation does: at two threads rte2d_desk gives another `train.nstf`
(its LU of the 1024 x 1024 transfer system), and no test fixes that.

Run as a script, the module is that child: it prints the digests of the
presets named on the command line (all four by default) and the library
versions as JSON.
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
        "train.nstf": "eaac689a2c3ba2827a2b92304381286a"
                      "d6f3df34d51cd7267ff6734bdd8cb532",
        "model.nstf": "e9c9ab988c2003be440fe1f7e37e79da"
                      "61083d31694e0880d65966a746981f05",
        "export": "009d58dec8a6281c20198b782e363d2e"
                  "21742e851ab15264248a234cb7a69b4e",
        "operator_error": "0x1.1dc60be2bb52cp+0"},
    "rte1d_desk": {
        "train.nstf": "dbf09b0d9fa809a0b25c090e10dd5476"
                      "c22f5ca300a705709efa09839089a501",
        "model.nstf": "6de6f0712517a33882be87983f519fec"
                      "4644260f69bce7f8972198874c5bbfd6",
        "export": "c430c3fb423dba00e24367045056f4e5"
                  "965e7592fc7a08dbbadbeb87d270d2ee",
        "operator_error": "0x1.218fd424f2196p-2"},
    "schrodinger2d_desk": {
        "train.nstf": "c4ba2bcfb91297529c08b68f194f0c17"
                      "af79b4ec59a80e12cd3b0016776b7724",
        "model.nstf": "bf8f2f6b7e1cc77c2858b70931f6e90c"
                      "f70911b99a75cae9ff756e211926e1f6",
        "export": "3327413ab5c151a3e65ef532a2f97ea3"
                  "35beaae7512e9f471a8e85736d8c8cbb",
        "operator_error": "0x1.4270f7a419f05p+1"},
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


def main(presets) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {p: _digests(p, Path(tmp) / p) for p in presets}
    json.dump({"versions": _versions(), "digests": digests}, sys.stdout)


def _check_child(threads: int, want: dict) -> None:
    """Run the child on want's presets at `threads` BLAS threads and
    compare the digests it prints with `want`."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(REPO / "src"),
                             os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__, *want], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    moved = [f"{preset} {name}: expected {value}, got {got}"
             for preset, table in want.items()
             for name, value in table.items()
             if (got := out["digests"][preset][name]) != value]
    assert not moved, (
        f"bytes moved at {threads} BLAS threads:\n  " + "\n  ".join(moved)
        + f"\ntable taken with {VERSIONS}\nthis run with {out['versions']}")


def test_desk_presets_reproduce_the_checked_in_bytes():
    _check_child(1, GOLDEN)


def test_elliptic_generation_bytes_do_not_depend_on_blas_threads():
    _check_child(2, {p: {"train.nstf": GOLDEN[p]["train.nstf"]}
                     for p in ("schrodinger1d_desk", "schrodinger2d_desk")})


if __name__ == "__main__":
    main(sys.argv[1:] or PRESETS)
