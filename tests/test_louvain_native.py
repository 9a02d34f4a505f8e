"""Louvain's local moves in C make the moves of the Python loop at every
level, also where 2m and the gains are far past 2**31, and Louvain falls
back to the Python loop when the C phase cannot be built (with a
warning)."""
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings

from alphadom import WeightedGraph, _native, community, louvain
from alphadom.generators import (WeightSpec, assign_weights, gen_gnm, gen_planted_partition,
                                 gen_powerlaw_cluster)

from .louvain_reference import reference_louvain
from .strategies import weighted_graphs
from .test_lp import mentions_like

NATIVE = _native.local_moves()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no C compiler to build the local moves")

SEEDED = {
    "gnm1000": lambda: gen_gnm(1000, 10_000, 1),
    "planted10x100": lambda: gen_planted_partition(10, 100, 0.2, 0.001, 2),
    "powerlaw2000": lambda: gen_powerlaw_cluster(2000, 3, 0.3, 3),
    "gnm300-isolated": lambda: gen_gnm(300, 200, 3),
    "star": lambda: WeightedGraph.from_edges(50, [(0, v) for v in range(1, 50)], [1] * 50),
    # hub-heavy and sparse: a few hubs, and most rows of one to three
    "mentions5000": lambda: mentions_like(5000, 9),
}


def assert_same_moves_at_every_level(g, monkeypatch):
    """Both phases make the same moves at every level of Louvain on ``g``;
    returns each level's weights."""
    levels = []

    def both(indptr, indices, data, strength, two_m):
        comm, moved = NATIVE(indptr, indices, data, strength, two_m)
        py_comm, py_moved = community._local_moves_py(indptr, indices, data, strength, two_m)
        assert comm.dtype == py_comm.dtype == np.int64
        assert (comm.tolist(), moved) == (py_comm.tolist(), py_moved)
        levels.append(data)
        return comm, moved

    monkeypatch.setattr(community, "_local_moves", both)
    community._louvain(g)
    return levels


@needs_native
@settings(max_examples=300, deadline=None)
@given(weighted_graphs(max_n=24))
def test_same_moves_as_python_on_small_graphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_moves_at_every_level(g, monkeypatch)


@needs_native
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_same_moves_as_python_on_seeded_graphs(name, monkeypatch):
    g = assign_weights(SEEDED[name](), WeightSpec(1, 71), 4)
    levels = assert_same_moves_at_every_level(g, monkeypatch)
    assert all(data.dtype == np.int64 for data in levels)
    assert np.all(levels[0] == 1)  # the graph's own rows, each edge of weight one
    assert len(levels) > 1  # then contracted levels, whose weights sum edges
    later = np.concatenate(levels[1:])
    # the star contracts to one vertex, which has no edge
    assert later.max() > 1 if name != "star" else len(later) == 0


@needs_native
def test_native_phase_refuses_weights_of_another_length():
    g = gen_gnm(20, 40, 1)
    with pytest.raises(ValueError, match="one weight per column index"):
        NATIVE(g.indptr, g.indices, np.ones(len(g.indices) - 1, dtype=np.int64),
               np.diff(g.indptr), 2 * g.edge_count)


def test_python_phase_without_a_compiler(tmp_path, monkeypatch):
    shutil.copy(_native.SOURCE, tmp_path)
    monkeypatch.setattr(_native, "SOURCE", tmp_path / _native.SOURCE.name)
    monkeypatch.setattr(_native, "COMPILER", str(tmp_path / "no-such-compiler"))
    with pytest.warns(RuntimeWarning, match="Louvain local moves run in Python.*no-such-compiler"):
        assert _native.local_moves.__wrapped__() is None  # past the cache of the real build
    assert list((tmp_path / "__pycache__").iterdir()) == []  # no partial library left

    monkeypatch.setattr(_native, "local_moves", lambda: None)
    g = gen_planted_partition(4, 30, 0.3, 0.01, 5)
    assert louvain(g).community_of == reference_louvain(g)


@needs_native
def test_python_phase_without_128_bit_integers(tmp_path, monkeypatch):
    # such a compiler builds the parser alone
    shutil.copy(_native.SOURCE, tmp_path)
    monkeypatch.setattr(_native, "SOURCE", tmp_path / _native.SOURCE.name)
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-U__SIZEOF_INT128__"))
    with pytest.warns(RuntimeWarning, match="Louvain local moves run in Python.*alphadom_local_moves"):
        assert _native.local_moves.__wrapped__() is None
    with pytest.warns(RuntimeWarning, match="greedy fill scan runs in Python.*alphadom_fill"):
        assert _native.fill.__wrapped__() is None
    assert _native.ingest.__wrapped__() is not None


def heavy_level(seed: int, bits: int):
    """A level of G(30, 80) whose every edge weighs up to 2**bits, the same
    in both of its rows, and whose vertices also hold self-loops of up to
    2**bits: (indptr, indices, data, strength, two_m), with 2m between
    2**bits and 2**63."""
    g = gen_gnm(30, 80, seed)
    rng = np.random.default_rng([seed, bits])
    owners = np.repeat(np.arange(g.n), np.diff(g.indptr))
    lo, hi = np.minimum(owners, g.indices), np.maximum(owners, g.indices)
    _, pair = np.unique(lo * g.n + hi, return_inverse=True)
    data = rng.integers(1, 2**bits, size=g.edge_count, endpoint=True)[pair]
    strength = 2 * rng.integers(0, 2**bits, size=g.n, endpoint=True)
    np.add.at(strength, owners, data)
    two_m = int(strength.sum(dtype=object))
    assert 2**bits < two_m < 2**63
    return g.indptr, g.indices, data, strength, two_m


@needs_native
def test_same_moves_as_python_where_two_m_is_far_past_two_to_the_31():
    moved = 0
    for seed in range(50):
        for bits in (40, 45, 50, 55):
            level = heavy_level(seed, bits)
            comm, native_moved = NATIVE(*level)
            py_comm, py_moved = community._local_moves_py(*level)
            assert (comm.tolist(), native_moved) == (py_comm.tolist(), py_moved)
            moved += native_moved and len(set(comm.tolist())) > 1
    assert moved > 150  # most levels move vertices into several communities


@needs_native
def test_library_is_built_once_and_rebuilt_for_a_new_source(tmp_path, monkeypatch):
    source = tmp_path / "_localmoves.c"
    shutil.copy(_native.SOURCE, source)
    monkeypatch.setattr(_native, "SOURCE", source)
    first = _native._library()

    def no_compiler(*args, **kwargs):
        raise subprocess.CalledProcessError(1, args[0])

    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    assert _native._library() == first  # found, not compiled again
    with monkeypatch.context() as other_machine:  # a checkout shared with another platform
        other_machine.setattr(_native.platform, "machine", lambda: "other-machine")
        with pytest.raises(subprocess.CalledProcessError):
            _native._library()
    source.write_text(source.read_text() + "\n/* edited */\n")
    with pytest.raises(subprocess.CalledProcessError):
        _native._library()
    assert sorted(p.name for p in first.parent.iterdir()) == [first.name]
