"""The benchmark's tracer wraps program functions by dotted name; every one
of those names must exist, or a per-layer metric silently reads null."""
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from alphadom import (DominationInstance, RoundingConfig, community_rounding,
                      gen_planted_partition, louvain)
from alphadom.generators import WeightSpec, assign_weights

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracer):
    unresolved = [dotted for dotted, *_ in tracer.POINTS
                  if tracer._resolve(dotted) is None]
    assert len(tracer.POINTS) > 0
    assert unresolved == []


def test_every_rrwc_call_traces_louvain_and_its_community_lps(tracer):
    # the benchmark checks each community LP of an rrwc call against the
    # partition of the louvain span inside that call, so a partition kept
    # outside louvain would leave the second alpha's LPs unchecked
    g = assign_weights(gen_planted_partition(4, 25, 0.3, 0.01, 3), WeightSpec(1, 71), 4)
    calls = []
    with tracer.Tracer() as t:
        for alpha in (Fraction(1, 4), Fraction(1, 2)):
            with t.operation("rrwc", None) as op:
                community_rounding(DominationInstance(g, alpha), RoundingConfig(seed=1))
            calls.append(op)
    assert t.missing == []
    for op in calls:
        spans = t.within(op, "louvain")
        assert len(spans) == 1
        partition = spans[0].facts["partition"]
        assert partition is louvain(g)
        sizes = np.bincount(partition.community_of)
        assert (sizes > 1).sum() >= 2
        assert len(t.within(op, "solve_lp")) == (sizes > 1).sum()
