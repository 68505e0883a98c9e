"""In-memory span tracer for the traced benchmark mode.

Spans are recorded around public functions and layer instances of
`nswave`, installed from here by replacing attributes; nothing under
`src/` changes.  Each span is `[name, start, end, parent, count]`, where
`parent` indexes the span that was open when it started (-1 at the top)
and `count` is an optional number measured at the same boundary (bytes
written, (eta, f) pairs pushed through a forward pass).

A layer's self time is its span's duration minus the time covered by its
direct children.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str, count=None):
        """`fn` recording one span per call; `count(args, result)` adds a
        number measured at the boundary."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(args, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace `owner.attr` (module, class or instance) by its traced
        version until `restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, prev in reversed(self._patches):
            if prev is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, prev)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Record nothing inside, so the benchmark's own checks stay out
        of the layer numbers."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def summary(self):
        """Per-name (total seconds, self seconds, calls, summed count)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, own = defaultdict(float), defaultdict(float)
        calls, counts = defaultdict(int), defaultdict(float)
        for i, (name, t0, t1, _, cnt) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
            counts[name] += cnt or 0
        return total, own, calls, counts

    def by_context(self, name: str, contexts: tuple) -> dict:
        """(calls, seconds, summed count) of the `name` spans, keyed by
        the nearest enclosing span whose name is in `contexts` (None when
        there is none)."""
        out = {}
        for span_name, t0, t1, parent, cnt in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] not in contexts:
                parent = self.spans[parent][3]
            key = self.spans[parent][0] if parent >= 0 else None
            calls, secs, total = out.get(key, (0, 0.0, 0.0))
            out[key] = (calls + 1, secs + t1 - t0, total + (cnt or 0))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, cnt in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "count": cnt}) + "\n")


def _file_bytes(args, _out):
    return os.path.getsize(args[0])


def _f_pairs(_args, out):
    tape = out[1]
    return tape["be"] * tape["bf"]


def _instrument_model(tracer: Tracer, mdl) -> None:
    for seq in mdl.convnets:
        for layer in seq:
            kind = "eta_conv" if hasattr(layer, "params") else "pool"
            tracer.patch(layer, "forward", f"net.{kind}.forward")
            tracer.patch(layer, "backward", f"net.{kind}.backward")
    for kind in ("fwt", "iwt"):
        for layer in getattr(mdl, kind):
            tracer.patch(layer, "forward", f"net.{kind}.forward")
            tracer.patch(layer, "backward", f"net.{kind}.backward")


def install(tracer: Tracer) -> None:
    """Trace the layer boundaries the per-layer metrics are read from.

    Functions are patched where their callers look them up: `pipeline`
    imported `export_operator`, `write_tensors` and `read_tensors` by
    name, so those are patched there (and `export_operator` also in
    `model`, where the benchmark calls it).  Every `MetaModel` built
    while the tracer is installed (the training model and the one
    `load_checkpoint` returns) gets its layer instances traced.
    """
    from nswave import model, net, pipeline, solvers

    spec = solvers.ProblemSpec
    for attr in ("sample_eta", "sample_f"):
        tracer.patch(spec, attr, "solvers.sample")
    for attr in ("solve_batch", "residual", "reference_matrix"):
        tracer.patch(spec, attr, f"solvers.{attr}")
    tracer.patch(solvers, "rte_kernel_1d", "solvers.kernel")
    tracer.patch(solvers, "rte_kernel_2d", "solvers.kernel")
    tracer.patch(solvers, "spectral_radius", "solvers.spectral_radius")

    tracer.patch(pipeline.SampleSet, "max_residual", "pipeline.max_residual")
    for attr in ("generate_dataset", "train", "evaluate", "power_norm2",
                 "operator_error", "save_checkpoint", "load_checkpoint"):
        tracer.patch(pipeline, attr, f"pipeline.{attr}")

    for mod in (model, pipeline):
        tracer.patch(mod, "export_operator", "model.export_operator")
    tracer.patch(pipeline, "write_tensors", "container.write", _file_bytes)
    tracer.patch(pipeline, "read_tensors", "container.read", _file_bytes)

    mm = model.MetaModel
    tracer.patch(mm, "eta_to_C", "model.eta_to_C")
    tracer.patch(mm, "forward_with_tape", "model.forward", _f_pairs)
    tracer.patch(mm, "backward", "model.backward")
    init = mm.__init__

    def traced_init(self, cfg):
        init(self, cfg)
        _instrument_model(tracer, self)
    tracer.replace(mm, "__init__", traced_init)

    tracer.patch(net, "nadam_step", "net.nadam")
