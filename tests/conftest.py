"""Shared fixtures: small hand-built regions and simulation plumbing."""

from __future__ import annotations

import sys

import pytest

from repro.cgra.placement import place_region
from repro.ir import (
    AffineExpr,
    IVar,
    MemObject,
    MemorySpace,
    PointerParam,
    RegionBuilder,
)
from repro.memory import MemoryHierarchy
from repro.sim import DataflowEngine, NachosBackend, NachosSWBackend, OptLSQBackend


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ timeline corpus files from the "
        "current reference-engine output instead of comparing",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Keep test runs out of the user's on-disk result cache."""
    from repro.runtime.cache import configure_cache

    configure_cache(root=tmp_path_factory.mktemp("nachos-cache"), enabled=True)
    yield


@pytest.fixture
def no_cache():
    """No on-disk result cache and fresh experiment memos, so every
    ``run_system`` call really computes."""
    from repro.experiments.common import clear_memos
    from repro.runtime.cache import configure_cache, get_cache

    prev = get_cache()
    configure_cache(enabled=False)
    clear_memos()
    yield
    clear_memos()
    configure_cache(root=prev.root, enabled=prev.enabled)


@pytest.fixture
def fresh_store(monkeypatch, tmp_path):
    """``fresh_store()``: a new empty on-disk result cache and fresh memo
    tables for the runs after it, so their tasks really run in the pool.
    A cache hit is served by the supervisor and never reaches a worker,
    so a chaos ``crash@`` point on it would never fire."""
    from repro.experiments.common import clear_memos
    from repro.runtime import cache as cache_module

    stores = []

    def install() -> None:
        root = tmp_path / f"cache{len(stores)}"
        stores.append(cache_module.ResultCache(root=root))
        monkeypatch.setattr(cache_module, "_default", stores[-1])
        clear_memos()

    yield install
    clear_memos()


@pytest.fixture
def sweep_calls():
    """``sweep_calls(fn, *args)``: ``fn(*args)`` plus how many subtree
    visits (calls of a nested function named ``rec``) it made, i.e. the
    size of an enumerator's branch-and-bound sweep."""

    def run(fn, *args):
        calls = 0

        def profiler(frame, event, _arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "rec":
                calls += 1

        sys.setprofile(profiler)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        return result, calls

    return run


@pytest.fixture
def set_enumeration_limit(monkeypatch):
    """``set_enumeration_limit(n)``: bound the joint domains that
    ``compare_offsets`` and the stage-5 oracle enumerate to *n* points
    for the rest of the test (the compiler's bound is a constant)."""
    from repro.compiler.aliasing import symbolic

    def set_limit(limit: int) -> None:
        monkeypatch.setattr(symbolic, "DEFAULT_ENUMERATION_LIMIT", limit)

    return set_limit


@pytest.fixture
def iv():
    return IVar("i", 64)


@pytest.fixture
def obj_a():
    return MemObject("a", 8192, base_addr=0x1000)


@pytest.fixture
def obj_b():
    return MemObject("b", 8192, base_addr=0x8000)


def build_simple_region(obj_a=None, obj_b=None, iv=None):
    """ld a[8i]; ld b[8i]; sum; st a[8i] (one MUST LD->ST, rest NO)."""
    obj_a = obj_a or MemObject("a", 8192, base_addr=0x1000)
    obj_b = obj_b or MemObject("b", 8192, base_addr=0x8000)
    iv = iv or IVar("i", 64)
    b = RegionBuilder("simple")
    x = b.input("x")
    ld1 = b.load(obj_a, AffineExpr.of(ivs={iv: 8}))
    ld2 = b.load(obj_b, AffineExpr.of(ivs={iv: 8}))
    s = b.add(ld1, ld2)
    st = b.store(obj_a, AffineExpr.of(ivs={iv: 8}), value=s)
    return b.build()


def build_may_region():
    """Two opaque-pointer accesses that MAY alias a named array's ops."""
    target1 = MemObject("t1", 4096, base_addr=0x20000)
    target2 = MemObject("t2", 4096, base_addr=0x30000)
    known = MemObject("k", 4096, base_addr=0x40000)
    p = PointerParam("p", runtime_object=target1, provenance=None)
    q = PointerParam("q", runtime_object=target2, provenance=None)
    iv = IVar("i", 32)
    b = RegionBuilder("maylike")
    x = b.input("x")
    st1 = b.store(p, AffineExpr.of(ivs={iv: 8}), value=x)
    ld1 = b.load(q, AffineExpr.of(ivs={iv: 8}))
    ld2 = b.load(known, AffineExpr.of(ivs={iv: 8}))
    acc = b.add(ld1, ld2)
    st2 = b.store(known, AffineExpr.of(const=8, ivs={iv: 8}), value=acc)
    return b.build()


@pytest.fixture
def simple_region(obj_a, obj_b, iv):
    return build_simple_region(obj_a, obj_b, iv)


@pytest.fixture
def may_region():
    return build_may_region()


BACKENDS = {
    "opt-lsq": OptLSQBackend,
    "nachos-sw": NachosSWBackend,
    "nachos": NachosBackend,
}


def make_engine(graph, backend_name="nachos-sw"):
    backend = BACKENDS[backend_name]()
    return DataflowEngine(graph, place_region(graph), MemoryHierarchy(), backend)


@pytest.fixture
def engine_factory():
    return make_engine
