"""Start-up of a benchmark process, and the set-up probe.

`prepare` pins BLAS to one thread before NumPy is first imported, and
puts the checkout's `src/` on the import path, so `nswave` need not be
installed.  Run as a script, this file is the set-up probe: a fresh
interpreter that imports nswave (with NumPy and SciPy), parses the
workload's config, derives the wavelet filter and builds the model, then
prints one JSON line and exits.

    python3 bench/startup.py elliptic1d 1
"""

import json
import os
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def prepare() -> None:
    if not (ROOT / "src" / "nswave" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        raise SystemExit(f"{ROOT} holds no src/nswave or configs/: run the "
                         f"benchmark from a checkout of the repository")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def _probe(workload: str, seed: int) -> None:
    prepare()
    import nswave  # noqa: F401  (NumPy and SciPy come with it)
    import_s = time.perf_counter() - _T0
    from nswave import model, wavelets
    from workloads import WORKLOADS, make_config
    cfg = make_config(ROOT, WORKLOADS[workload], seed)
    wavelets.daubechies_filter(cfg.model.p)
    model.MetaModel(cfg.model)
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    _probe(sys.argv[1], int(sys.argv[2]))
