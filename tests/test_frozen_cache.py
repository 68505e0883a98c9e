"""The per-geometry tables: every builder is one `errors.frozen_cache`,
and none of its arrays can be written to."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from nswave import errors, model, net, nsform, solvers, wavelets

OFFSETS = ((-1,), (0,), (1,))
BUILDERS = [
    (net, "_tap_layout", ((8,), 3, 1, -1, "zero")),
    (nsform, "_shift_index", (OFFSETS, 8, "zero")),
    (nsform, "_adjoint_scatter", (((0, OFFSETS), (1, OFFSETS[1:])), 8, 2)),
    (nsform, "_band_pattern", (OFFSETS, 8, 2, "zero")),
    (model, "_level_layout", (1, 8, 2, 1, 3, True, True)),
    (solvers, "_stencil_pattern", ((5,),)),
    (solvers, "_far_distances", (tuple(np.arange(8) + 0.5), 1, 10)),
    (solvers, "_near_stencil", (1, 4, 4, solvers._slab_self_cell)),
    (wavelets, "daubechies_filter", (2,)),
]


def _arrays(obj):
    """Every ndarray reachable from obj: sparse buffers, and the items of
    tuples, lists, dict values and dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if hasattr(obj, "indptr"):
        return [obj.data, obj.indices, obj.indptr]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return []


@pytest.mark.parametrize("module, name, key", BUILDERS,
                         ids=[name for _, name, _ in BUILDERS])
def test_builder_is_memoized_and_every_array_read_only(module, name, key):
    build = getattr(module, name)
    build.cache_clear()
    table = build(*key)
    assert build(*key) is table
    assert build.cache_info().misses == 1 and build.cache_info().hits == 1
    arrays = _arrays(table)
    assert arrays
    assert not any(a.flags.writeable for a in arrays)


def test_freeze_reaches_sparse_buffers_containers_and_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Record:
        values: np.ndarray
        size: int

    mat = nsform.scatter_matrix(np.array([1, 0]), np.array([0, 1]), 2).copy()
    obj = ([np.zeros(2)], {"a": (np.ones(3), None)}, Record(np.arange(4), 4),
           mat)
    assert all(a.flags.writeable for a in _arrays(obj))
    assert errors.freeze(obj) is obj
    assert not any(a.flags.writeable for a in _arrays(obj))


def test_no_cache_or_read_only_flag_outside_the_one_memo():
    # errors.frozen_cache is the package's only bounded cache and its only
    # writer of read-only flags; functools.cache keeps a build's lazies
    found = [f"{path.name}:{no}: {line.strip()}"
             for path in sorted(Path(errors.__file__).parent.glob("*.py"))
             if path.name != "errors.py"
             for no, line in enumerate(path.read_text().splitlines(), 1)
             if any(word in line for word in
                    ("lru_cache", "setflags(", "flags.writeable"))]
    assert not found, found
