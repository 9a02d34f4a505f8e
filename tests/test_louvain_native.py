"""Louvain's local moves in C make the moves of the Python loop at every
level, and Louvain falls back to the Python loop when the C phase cannot be
built (with a warning) or 2m is past its int64 range."""
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

NATIVE = _native.local_moves()
needs_native = pytest.mark.skipif(NATIVE is None, reason="no C compiler to build the local moves")

SEEDED = {
    "gnm1000": lambda: gen_gnm(1000, 10_000, 1),
    "planted10x100": lambda: gen_planted_partition(10, 100, 0.2, 0.001, 2),
    "powerlaw2000": lambda: gen_powerlaw_cluster(2000, 3, 0.3, 3),
    "gnm300-isolated": lambda: gen_gnm(300, 200, 3),
    "star": lambda: WeightedGraph.from_edges(50, [(0, v) for v in range(1, 50)], [1] * 50),
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


def test_two_m_past_the_native_range_runs_in_python(monkeypatch):
    def refuse(*args):
        raise AssertionError("the C phase ran")

    monkeypatch.setattr(_native, "local_moves", lambda: refuse)
    monkeypatch.setattr(community, "_NATIVE_MAX_TWO_M", 0)
    g = gen_gnm(200, 400, 1)
    assert louvain(g).community_of == reference_louvain(g)


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
