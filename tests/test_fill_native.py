"""The greedy fill scan in C takes the vertices of the Python scan, from the
empty set and from any start set, also where float keys tie or read zero,
and greedy and rounding fall back to the Python scan, with the same sets,
when the C scan cannot be built (with one warning).  The C scan's selection
stays within O(d log d) comparisons on a row built against it."""
import math
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

from .strategies import ALPHAS, hard_weighted_graphs, near_float_bound, weighted_graphs

NATIVE = _native.fill()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no C compiler to build the fill scan")


def assert_same_fill(inst, strategy, start):
    """Both scans from ``start`` and its coverage give the same set, weight
    and final coverage, through :func:`greedy._fill` and called directly on
    copies of the same arrays."""
    g = inst.graph
    keys = greedy._keys(strategy, g)
    in_set = np.zeros(g.n, dtype=np.uint8)
    in_set[sorted(start.members)] = 1
    direct = []
    for scan in (NATIVE, greedy._fill_py):
        cover, flags = coverage_counts(g, start), in_set.copy()
        assert scan(g.indptr, g.indices, *keys, inst.demand_array(), cover, flags) is None
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


@needs_native
@settings(max_examples=150, deadline=None)
@given(hard_weighted_graphs(), st.data())
def test_same_fill_as_python_with_hard_weights(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert_same_fills(g, [DominatingSet.empty(), DominatingSet.from_members(g, members)])


def star(leaves, weight=lambda v: 1 + v % 71):
    return WeightedGraph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)],
                                    list(map(weight, range(leaves + 1))))


def cycle(n, weight):
    return WeightedGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)],
                                    list(map(weight, range(n))))


def float_ties(g, strategy):
    """Pairs of vertices of one closed neighbourhood whose keys hold equal
    floats, as (equal ratios, distinct ratios) counts."""
    nums, dens, q = (a.tolist() for a in greedy._keys(strategy, g))
    equal = distinct = 0
    for v in range(g.n):
        row = [v, *g.neighbors(v)]
        for a in row:
            for b in row:
                if a < b and q[a] == q[b]:
                    same = nums[a] * dens[b] == nums[b] * dens[a]
                    equal, distinct = equal + same, distinct + (not same)
    return equal, distinct


def equal_ratios_only(g, strategy):
    equal, distinct = float_ties(g, strategy)
    return equal > 0 and distinct == 0


def floats(g, strategy):
    return greedy._keys(strategy, g)[2]


def positions(g):
    nums, dens, _ = greedy._keys(Strategy.S1, g)
    return sorted(nums.tolist()) == list(range(g.n)) and not np.any(dens != 1)


# Graphs whose float keys do not settle the order, each with a check that
# its keys are of its kind: (graph, check)
TIES = {
    # 3k + 1 and 3k + 2 over a closed degree of 3 round to one float below
    # 2**53, so S2 compares each pair of neighbours by cross-multiplying
    "q-ties-near-2**53": (lambda: cycle(300, lambda v: 3 * (2**51 + v // 2) + 1 + v % 2),
                          lambda g: float_ties(g, Strategy.S2)[1] > 0),
    # int64 keys, S3's sums past 2**53: its quotients all read zero
    "near-float-bound-1000": (lambda: near_float_bound(1000),
                              lambda g: floats(g, Strategy.S1).all()
                              and not floats(g, Strategy.S3).any()),
    # int64 weights from 2**55: every quotient reads zero
    "gnm60-past-2**53": (lambda: gen_gnm(60, 240, 35).with_weights(
                             [2**55 + v % 7 for v in range(60)]),
                         lambda g: not any(floats(g, s).any() for s in Strategy)),
    # the largest weight times n past 2**63: positions in sort_key order
    "near-float-bound-1100": (lambda: near_float_bound(1100), positions),
    # S2's ratios all 3, from distinct numerators and denominators
    "equal-ratios": (lambda: (lambda g: g.with_weights((3 * (np.diff(g.indptr) + 1)).tolist()))(
                         gen_gnm(200, 800, 36)),
                     lambda g: equal_ratios_only(g, Strategy.S2)
                     and len(set(greedy._keys(Strategy.S2, g)[1].tolist())) > 1),
    # every ratio equal under every strategy: the index decides
    "equal-weights-cycle": (lambda: cycle(100, lambda v: 5),
                            lambda g: all(equal_ratios_only(g, s) for s in Strategy)),
}


@pytest.mark.parametrize("name", sorted(TIES))
def test_the_tie_graphs_hold_their_ties(name):
    graph, check = TIES[name]
    assert check(graph())


@needs_native
@pytest.mark.parametrize("name", sorted(TIES))
def test_same_fill_as_python_where_floats_tie(name):
    g = TIES[name][0]()
    assert_same_fills(g, [DominatingSet.empty(), DominatingSet.from_members(g, range(0, g.n, 3))])


SEEDED = {
    "empty": lambda: WeightedGraph.from_edges(0, [], []),
    "isolated": lambda: WeightedGraph.from_edges(6, [(0, 1), (1, 2)], [4, 1, 3, 9, 2, 7]),
    "gnm300": lambda: assign_weights(gen_gnm(300, 3000, 31), WeightSpec(1, 71), 32),
    # weights past int64: the scans compare positions in sort_key order
    "gnm60-huge-weights": lambda: gen_gnm(60, 240, 33).with_weights(
        [2**64 + v % 7 for v in range(60)]),
    # weights that fit int64 while their sums do not: positions again
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


@needs_native
def test_a_kernel_missing_from_the_library_warns():
    # as the local moves and the fill scan are where the compiler has no
    # 128-bit integers
    with pytest.warns(RuntimeWarning,
                      match="^Nothing could not be built or loaded: .*alphadom_nothing"):
        assert _native._kernel("alphadom_nothing", "Nothing") is None


SMALL = 16  # as in _native.c


def select_smallest(a, k, less, budget=True):
    """``select_smallest`` of ``_native.c``, transcribed: moves the k first
    of the list ``a`` in the order of ``less`` to ``a[:k]``.  Without the
    ``budget`` of 2 ceil(log2 len) rounds, partitioning goes on until the
    range is short."""
    def swap(i, j):
        a[i], a[j] = a[j], a[i]

    lo, hi = 0, len(a)
    rounds = 2 * (len(a) - 1).bit_length() if budget else math.inf
    while hi - lo > SMALL and rounds > 0:
        rounds -= 1
        mid, last = lo + (hi - lo) // 2, hi - 1
        if less(a[mid], a[lo]):
            swap(lo, mid)
        if less(a[last], a[mid]):
            swap(mid, last)
            if less(a[mid], a[lo]):
                swap(lo, mid)
        i, j, pivot = lo, last - 1, a[mid]
        swap(mid, j)
        while True:
            i += 1
            while less(a[i], pivot):
                i += 1
            j -= 1
            while less(pivot, a[j]):
                j -= 1
            if i > j:
                break
            swap(i, j)
        swap(i, last - 1)
        if i == k or i + 1 == k:
            return
        if i > k:
            hi = i
        else:
            lo = i + 1
    heap_select(a, lo, hi, k, less)


def heap_select(a, lo, hi, k, less):
    """``heap_select`` of ``_native.c`` on ``a[lo:hi]``, transcribed."""
    size = k - lo

    def sift_down(i):
        x = a[lo + i]
        while (c := 2 * i + 1) < size:
            if c + 1 < size and less(a[lo + c], a[lo + c + 1]):
                c += 1
            if not less(x, a[lo + c]):
                break
            a[lo + i] = a[lo + c]
            i = c
        a[lo + i] = x

    for i in reversed(range(size // 2)):
        sift_down(i)
    for i in range(k, hi):
        if less(a[i], a[lo]):
            a[lo], a[i] = a[i], a[lo]
            sift_down(0)


class Adversary:
    """McIlroy's adversary ("A killer adversary for quicksort", Software:
    Practice and Experience, 1999) as a ``less`` over the positions of a
    row.  Every position starts as gas, above every solid value.  When two
    gas positions meet, one is frozen to the next solid value: the last gas
    position compared, which is likely the pivot, so pivots come out low.
    The values it gave, with the rest frozen in index order, are a row on
    which the selection makes the same comparisons."""

    def __init__(self, size):
        self.gas = size
        self.value = [size] * size
        self.solid = 0
        self.candidate = None
        self.comparisons = 0

    def less(self, x, y):
        self.comparisons += 1
        value, gas = self.value, self.gas
        if value[x] == gas and value[y] == gas:
            value[x if x == self.candidate else y] = self.solid
            self.solid += 1
        if value[x] == gas:
            self.candidate = x
        elif value[y] == gas:
            self.candidate = y
        return value[x] < value[y]

    def row(self):
        for x, v in enumerate(self.value):
            if v == self.gas:
                self.value[x] = self.solid
                self.solid += 1
        return self.value


LEAVES = 2000


def killer_row(k, budget):
    """A row of LEAVES + 1 distinct values built against the selection of
    the k first, and the comparisons the selection makes on it."""
    adversary = Adversary(LEAVES + 1)
    select_smallest(list(range(LEAVES + 1)), k, adversary.less, budget)
    row, comparisons = adversary.row(), 0

    def less(x, y):
        nonlocal comparisons
        comparisons += 1
        return row[x] < row[y]

    a = list(range(LEAVES + 1))
    select_smallest(a, k, less, budget)
    assert sorted(row[x] for x in a[:k]) == list(range(k))
    assert comparisons == adversary.comparisons  # the row replays the adversary
    return row, comparisons


def test_round_budget_bounds_the_selection_on_a_killer_row():
    k = (LEAVES + 2) // 2  # a star's hub at alpha 1/2
    _, unbounded = killer_row(k, budget=False)
    _, bounded = killer_row(k, budget=True)
    assert unbounded >= LEAVES**2 / 8  # quadratic without the budget
    assert bounded <= 3 * LEAVES * math.log2(LEAVES)


@needs_native
@pytest.mark.parametrize("budget", [False, True])
def test_killer_row_as_a_hub_gives_the_python_set(budget):
    # the C scan gathers the hub's row, leaves 1..LEAVES, and then the hub:
    # S1 ranks each by its weight, the killer row's value + 1
    inst = DominationInstance(star(LEAVES), Fraction(1, 2))
    k = int(inst.demand_array()[0])
    row, _ = killer_row(k, budget)
    g = star(LEAVES, lambda v: 1 + row[v - 1])
    assert_same_fill(DominationInstance(g, Fraction(1, 2)), Strategy.S1, DominatingSet.empty())
