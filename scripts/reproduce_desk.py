#!/usr/bin/env python3
"""Run the desk-scale study end to end: generate data, train, evaluate,
and print a results table for the 1D elliptic and transfer presets.

Usage:
    python scripts/reproduce_desk.py [--out runs/] [--presets a,b,...]

Each preset runs the CLI's own `gen-data` (skipped when the dataset
exists) and `train` commands in-process, writing data/ and ckpt/ under
<out>/<preset>/; a nonzero exit code stops the run with that code.  The
table reads each row from the checkpoint's metrics.json.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from nswave import cli  # noqa: E402

DEFAULT = ["schrodinger1d_desk", "divergence1d_desk", "rte1d_desk"]


def run_preset(name: str, out_root: Path) -> dict:
    """`nswave gen-data` (unless the dataset exists) and `nswave train` on
    one preset; its table row, from the checkpoint's metrics.json."""
    config = str(REPO / "configs" / f"{name}.json")
    data, ckpt = out_root / name / "data", out_root / name / "ckpt"
    steps = [["train", "--config", config, "--data", str(data),
              "--out", str(ckpt)]]
    if not (data / "dataset.json").exists():
        steps.insert(0, ["gen-data", "--config", config, "--out", str(data)])
    for argv in steps:
        code = cli.main(argv)
        if code:
            raise SystemExit(code)
    m = json.loads((ckpt / "metrics.json").read_text())
    return {"preset": name, "epochs": m["epochs"], "train": m["train_error"],
            "test": m["test_error"], "op": m["operator_error"],
            "wall": m["wall_time"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs")
    ap.add_argument("--presets", default=",".join(DEFAULT))
    args = ap.parse_args()
    rows = []
    for name in args.presets.split(","):
        print(f"== {name}")
        rows.append(run_preset(name.strip(), Path(args.out)))
        print(json.dumps(rows[-1], indent=2))
    print(f"\n{'preset':<22} {'epochs':>6} {'train':>10} {'test':>10} "
          f"{'operator':>10} {'minutes':>8}")
    for r in rows:
        op = f"{r['op']:.3e}" if r["op"] is not None else "-"
        print(f"{r['preset']:<22} {r['epochs']:>6} {r['train']:>10.3e} "
              f"{r['test']:>10.3e} {op:>10} {r['wall'] / 60:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
