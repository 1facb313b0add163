"""Packed value evidence: ``LoadValues`` and ``MemoryImage``.

Every run's load values and final memory image, and the golden model's,
are held as arrays in one canonical order.  These tests pin the mapping
and sequence protocol readers use, equality with plain dicts and tuples,
pickling, the golden comparison (one field differing at a time), and
that a result read back from the disk cache is still packed.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.experiments.common import clear_memos, run_system
from repro.runtime.cache import configure_cache, get_cache
from repro.sim.oracle import GoldenResult, golden_execute
from repro.sim.values import LoadValues, MemoryImage
from repro.workloads.micro import build_micro

#: Inserted out of key order, as the engine's working dict may be.
LOADS = {(1, 7): 11, (0, 9): 22, (0, 3): 33, (1, 2): 44}
MEMORY = {0x108: 5, 0x100: 6, -8: 7, (1 << 63) - 1: (1 << 64) - 1}


@pytest.fixture(scope="module")
def gather():
    """The gather micro's golden result and a plain dict/tuple copy."""
    w = build_micro("gather")
    golden = golden_execute(w.graph, w.invocations(4))
    return w, golden, dict(golden.load_values.items()), tuple(golden.memory_image)


def test_load_values_mapping_protocol():
    lv = LoadValues.pack(LOADS)
    assert len(lv) == 4
    assert list(lv) == [(0, 3), (0, 9), (1, 2), (1, 7)]
    assert list(lv.items()) == sorted(LOADS.items())
    assert list(lv.values()) == [33, 22, 44, 11]
    for key, value in LOADS.items():
        assert lv[key] == value
        assert key in lv
        assert lv.get(key) == value
    for missing in [(0, 4), (2, 0), (0, 0), (1, 8)]:
        assert missing not in lv
        with pytest.raises(KeyError):
            lv[missing]
    assert ((0, 3), 33) in lv.items()
    empty = LoadValues.pack({})
    assert len(empty) == 0 and (0, 0) not in empty and list(empty) == []


def test_memory_image_sequence_protocol():
    image = MemoryImage.pack(MEMORY)
    assert len(image) == 4
    want = tuple(sorted(MEMORY.items()))
    assert tuple(image) == want
    assert image[0] == (-8, 7) and image[-1] == ((1 << 63) - 1, (1 << 64) - 1)
    assert image[1:3] == want[1:3] and isinstance(image[1:3], MemoryImage)
    assert (0x100, 6) in image and (0x100, 5) not in image
    with pytest.raises(IndexError):
        image[4]


def test_packed_forms_equal_plain_dict_and_tuple():
    lv, image = LoadValues.pack(LOADS), MemoryImage.pack(MEMORY)
    assert lv == LOADS and LOADS == lv
    assert lv == LoadValues.pack(dict(reversed(list(LOADS.items()))))
    assert lv != {**LOADS, (0, 3): 34}
    assert lv != {k: v for k, v in LOADS.items() if k != (0, 3)}
    want = tuple(sorted(MEMORY.items()))
    assert image == want and want == image and image == list(want)
    assert image != want[:-1] and image != tuple(reversed(want))
    assert image == MemoryImage.pack(dict(reversed(list(MEMORY.items()))))


def test_pickle_round_trip_keeps_types_and_arrays():
    lv, image = LoadValues.pack(LOADS), MemoryImage.pack(MEMORY)
    lv2, image2 = pickle.loads(pickle.dumps((lv, image), pickle.HIGHEST_PROTOCOL))
    assert type(lv2) is LoadValues and type(image2) is MemoryImage
    assert type(lv2._keys) is array and type(lv2._values) is array
    assert type(image2._addrs) is array and type(image2._tokens) is array
    assert lv2 == lv and image2 == image
    assert pickle.dumps(lv2) == pickle.dumps(lv)


def test_golden_result_is_packed(gather):
    _w, golden, loads, image = gather
    assert type(golden.load_values) is LoadValues
    assert type(golden.memory_image) is MemoryImage
    assert len(loads) > 0 and len(image) > 0
    assert golden.matches(golden.load_values, golden.memory_image)
    assert golden.matches(loads, image)


def _mutations(loads, image):
    """One (name, load_values, memory_image) per single difference."""
    key, value = next(iter(loads.items()))
    addr, token = image[0]
    fresh_op = max(op for _inv, op in loads) + 1
    fresh_addr = image[-1][0] + 1
    yield "load value", {**loads, key: value ^ 1}, image
    moved = {k: v for k, v in loads.items() if k != key}
    moved[(key[0], fresh_op)] = value
    yield "load key", moved, image
    yield "memory token", loads, ((addr, token ^ 1),) + image[1:]
    yield "memory address", loads, image[1:] + ((fresh_addr, token),)
    yield "load count", {k: v for k, v in loads.items() if k != key}, image
    yield "memory length", loads, image + ((fresh_addr, 0),)


def test_matches_false_on_any_single_difference(gather):
    _w, golden, loads, image = gather
    for name, lv, mem in _mutations(loads, image):
        assert not golden.matches(lv, mem), name
        assert not golden.matches(LoadValues.pack(lv), MemoryImage.pack(dict(mem))), name
        assert not GoldenResult(LoadValues.pack(lv), MemoryImage.pack(dict(mem))).matches(
            golden.load_values, golden.memory_image
        ), name


def test_run_system_result_read_from_disk_is_packed(gather, tmp_path):
    w, golden, _loads, _image = gather
    prev = get_cache()
    cache = configure_cache(root=tmp_path, enabled=True)
    clear_memos()
    try:
        computed = run_system(w, "nachos", invocations=4)
        clear_memos()
        hits = cache.hits
        read = run_system(w, "nachos", invocations=4)
        assert cache.hits == hits + 1
    finally:
        clear_memos()
        configure_cache(root=prev.root, enabled=prev.enabled)
    assert read.sim is not computed.sim
    for run in (computed, read):
        assert type(run.sim.load_values) is LoadValues
        assert type(run.sim.memory_image) is MemoryImage
        assert run.correct
        assert golden.matches(run.sim.load_values, run.sim.memory_image)
    assert pickle.dumps(read.sim) == pickle.dumps(computed.sim)
