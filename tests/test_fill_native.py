"""The greedy fill scan in C takes the vertices of the Python scan, from the
empty set and from any start set, and greedy and rounding fall back to the
Python scan, with the same sets, when the C scan cannot be built (with one
warning)."""
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphadom import (DominatingSet, DominationInstance, Strategy, WeightedGraph, _native,
                      build_lp, coverage_counts, greedy_dominate, randomized_rounding,
                      solve_lp)
from alphadom import greedy
from alphadom.generators import WeightSpec, assign_weights, gen_gnm

from .strategies import ALPHAS, weighted_graphs

NATIVE = _native.fill()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no C compiler to build the fill scan")


def assert_same_fill(inst, strategy, start):
    """Both scans from ``start`` and its coverage give the same set, weight
    and final coverage, through :func:`greedy._fill` and called directly on
    copies of the same arrays."""
    g = inst.graph
    rank = greedy.rank_order(strategy, g)
    in_set = np.zeros(g.n, dtype=np.uint8)
    in_set[sorted(start.members)] = 1
    direct = []
    for scan in (NATIVE, greedy._fill_py):
        cover, flags = coverage_counts(g, start), in_set.copy()
        assert scan(g.indptr, g.indices, rank, inst.demand_array(), cover, flags) is None
        direct.append((cover.tolist(), flags.tolist()))
    assert direct[0] == direct[1]
    assert np.all(np.asarray(direct[0][1])[in_set == 1] == 1)  # every start member stays

    results = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for fill in (NATIVE, None):
            monkeypatch.setattr(_native, "fill", lambda: fill)
            cover = coverage_counts(inst.graph, start)
            results.append((greedy._fill(inst, strategy, start, cover), cover))
    (c_set, c_cover), (py_set, py_cover) = results
    assert c_set.members == py_set.members
    assert c_set.total_weight == py_set.total_weight == c_set.recomputed_weight(inst.graph)
    assert c_cover.tolist() == py_cover.tolist()
    assert np.all(c_cover >= inst.demand_array())


def assert_same_fills(g, starts):
    for alpha in ALPHAS:
        inst = DominationInstance(g, alpha)
        for s in Strategy:
            for start in starts:
                assert_same_fill(inst, s, start)


@needs_native
@settings(max_examples=150, deadline=None)
@given(weighted_graphs(max_n=16), st.data())
def test_same_fill_as_python_on_small_graphs(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert_same_fills(g, [DominatingSet.empty(), DominatingSet.from_members(g, members)])


def star(leaves):
    return WeightedGraph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)],
                                    [1 + v % 71 for v in range(leaves + 1)])


SEEDED = {
    "empty": lambda: WeightedGraph.from_edges(0, [], []),
    "isolated": lambda: WeightedGraph.from_edges(6, [(0, 1), (1, 2)], [4, 1, 3, 9, 2, 7]),
    "gnm300": lambda: assign_weights(gen_gnm(300, 3000, 31), WeightSpec(1, 71), 32),
    # the C scan reads no weights, so it serves weights past int64 too
    "gnm60-huge-weights": lambda: gen_gnm(60, 240, 33).with_weights(
        [2**64 + v % 7 for v in range(60)]),
    # weights that fit int64 while their sums do not, summed in Python ints
    "gnm60-int64-weights": lambda: gen_gnm(60, 240, 34).with_weights(
        [2**62 + v % 7 for v in range(60)]),
    "star10000": lambda: star(10_000),
}


@needs_native
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_same_fill_as_python_on_seeded_graphs(name):
    g = SEEDED[name]()
    assert_same_fills(g, [DominatingSet.empty(), DominatingSet.from_members(g, range(0, g.n, 3))])


@needs_native
def test_python_fallback_gives_the_native_sets(monkeypatch):
    g = assign_weights(gen_gnm(300, 3000, 41), WeightSpec(1, 71), 42)
    inst = DominationInstance(g, Fraction(1, 2))
    fractional = solve_lp(build_lp(inst))

    def solve_all():
        sets = [greedy_dominate(inst, s) for s in Strategy]
        sets += [randomized_rounding(inst, seed, fractional) for seed in range(5)]
        return [(d.members, d.total_weight) for d in sets]

    native = solve_all()
    scans = []
    fill_py = greedy._fill_py
    monkeypatch.setattr(greedy, "_fill_py", lambda *args: scans.append(1) or fill_py(*args))
    monkeypatch.setattr(_native, "fill", lambda: None)
    assert solve_all() == native
    assert len(scans) == len(native)  # every set came from the Python scan


def test_fill_warns_once_without_a_compiler(tmp_path, monkeypatch):
    shutil.copy(_native.SOURCE, tmp_path)
    monkeypatch.setattr(_native, "SOURCE", tmp_path / _native.SOURCE.name)
    monkeypatch.setattr(_native, "COMPILER", str(tmp_path / "no-such-compiler"))
    _native.fill.cache_clear()
    try:
        with pytest.warns(RuntimeWarning,
                          match="greedy fill scan runs in Python.*no-such-compiler") as record:
            assert _native.fill() is None
            assert _native.fill() is None
    finally:
        _native.fill.cache_clear()  # the next call loads the real build again
    assert len(record) == 1
    assert list((tmp_path / "__pycache__").iterdir()) == []  # no partial library left
