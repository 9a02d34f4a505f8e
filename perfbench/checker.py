"""Checks of solver outputs that share no code with the program under test.

Every check works on the benchmark's own copy of a graph (:class:`RefGraph`:
edge arrays, weights and labels held by the benchmark) and on public
attributes of the program's results.  Demands and coverage are recomputed
here in integer arithmetic, LP optima come from HiGHS through
``scipy.optimize.linprog`` on a program built here, and modularity comes from
networkx.  A failed check raises :class:`CheckError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

LP_REL_TOL = 1e-6       # solve_lp objective against the HiGHS optimum
MODULARITY_TOL = 1e-9   # program modularity against networkx


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


@dataclass(frozen=True)
class RefGraph:
    """The benchmark's own copy of an input graph.

    Edges are held once each as ``u[i] < v[i]``; vertex ``i`` is written to
    the files under ``labels[i]`` with weight ``weights[i]``.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...]

    def degrees(self) -> np.ndarray:
        return (np.bincount(self.u, minlength=self.n)
                + np.bincount(self.v, minlength=self.n))

    def demands(self, alpha: Fraction) -> np.ndarray:
        """ceil(alpha * (deg + 1)) in integer arithmetic."""
        return -((-alpha.numerator * (self.degrees() + 1)) // alpha.denominator)

    def coverage(self, member: np.ndarray) -> np.ndarray:
        """|N[x] ∩ D| for every vertex x, given D as a boolean mask."""
        m = member.astype(np.int64)
        return (m + np.bincount(self.u, weights=m[self.v], minlength=self.n)
                + np.bincount(self.v, weights=m[self.u], minlength=self.n)).astype(np.int64)

    def edge_keys(self) -> np.ndarray:
        return np.sort(self.u.astype(np.int64) * self.n + self.v)

    def label_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.labels)}

    def induced(self, vertices: np.ndarray) -> "RefGraph":
        """Induced subgraph on ``vertices`` (ascending), renumbered 0..k-1."""
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(len(vertices))
        keep = (local[self.u] >= 0) & (local[self.v] >= 0)
        lu, lv = local[self.u[keep]], local[self.v[keep]]
        return RefGraph(len(vertices), np.minimum(lu, lv), np.maximum(lu, lv),
                        self.weights[vertices],
                        tuple(self.labels[i] for i in vertices))


def lp_optimum(ref: RefGraph, alpha: Fraction) -> float:
    """Optimum of min w.x s.t. (A + I) x >= demands, 0 <= x <= 1, by HiGHS."""
    n = ref.n
    if n == 0:
        return 0.0
    diag = np.arange(n)
    rows = np.concatenate([ref.u, ref.v, diag])
    cols = np.concatenate([ref.v, ref.u, diag])
    cover = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    res = linprog(ref.weights.astype(float), A_ub=-cover,
                  b_ub=-ref.demands(alpha).astype(float), bounds=(0, 1),
                  method="highs")
    if res.status != 0:
        raise CheckError(f"HiGHS did not solve the reference LP: {res.message}")
    return float(res.fun)


def check_load(ref: RefGraph, g, index: dict[str, int] | None = None) -> np.ndarray:
    """The loaded graph has exactly the written vertices, weights and edges.

    Returns the map from the loaded graph's vertex indices to ``ref``'s.
    """
    if g.n != ref.n:
        raise CheckError(f"loaded {g.n} vertices, wrote {ref.n}")
    if g.labels is None:
        raise CheckError("loaded graph carries no labels")
    index = ref.label_index() if index is None else index
    try:
        to_ref = np.fromiter((index[s] for s in g.labels), dtype=np.int64, count=g.n)
    except KeyError as exc:
        raise CheckError(f"loaded label {exc} was never written") from None
    if len(np.unique(to_ref)) != ref.n:
        raise CheckError("loaded labels are not one per written vertex")
    loaded_weights = np.asarray(g.weights, dtype=np.int64)
    if not np.array_equal(loaded_weights, ref.weights[to_ref]):
        bad = int(np.nonzero(loaded_weights != ref.weights[to_ref])[0][0])
        raise CheckError(f"weight of {g.labels[bad]!r} loaded as {loaded_weights[bad]}, "
                         f"written as {ref.weights[to_ref[bad]]}")
    pairs = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    a, b = to_ref[pairs[:, 0]], to_ref[pairs[:, 1]]
    keys = np.sort(np.minimum(a, b) * ref.n + np.maximum(a, b))
    if not np.array_equal(keys, ref.edge_keys()):
        raise CheckError(f"loaded {len(keys)} edges that differ from the "
                         f"{len(ref.u)} written")
    return to_ref


def check_solution(ref: RefGraph, alpha: Fraction, members: np.ndarray,
                   cached_weight: int, lp_bound: float) -> int:
    """Feasibility, weight and the LP lower bound of one solver output.

    ``members`` are ``ref`` vertex indices.  Returns the recomputed weight.
    """
    if len(members) and (members.min() < 0 or members.max() >= ref.n):
        raise CheckError("member index out of range")
    member = np.zeros(ref.n, dtype=bool)
    member[members] = True
    if int(member.sum()) != len(members):
        raise CheckError("a member is listed twice")
    short = ref.demands(alpha) - ref.coverage(member)
    if (short > 0).any():
        worst = int(np.argmax(short))
        raise CheckError(f"{int((short > 0).sum())} vertices below demand, e.g. "
                         f"{ref.labels[worst]!r} short by {int(short[worst])}")
    weight = int(ref.weights[member].sum())
    if weight != cached_weight:
        raise CheckError(f"cached weight {cached_weight}, members weigh {weight}")
    if weight < lp_bound - 1e-6 * max(1.0, abs(lp_bound)):
        raise CheckError(f"weight {weight} below the LP bound {lp_bound}")
    return weight


def check_lp_objective(objective: float, optimum: float, what: str) -> None:
    if abs(objective - optimum) > LP_REL_TOL * max(1.0, abs(optimum)):
        raise CheckError(f"{what}: solve_lp objective {objective!r}, "
                         f"HiGHS optimum {optimum!r}")


def networkx_modularity(ref: RefGraph, community_of: np.ndarray) -> float:
    """Modularity of the partition ``community_of`` (indexed like ``ref``)."""
    import networkx as nx  # imported here: only traced runs need it
    G = nx.Graph()
    G.add_nodes_from(range(ref.n))
    G.add_edges_from(zip(ref.u.tolist(), ref.v.tolist()))
    groups = [set(np.nonzero(community_of == c)[0].tolist())
              for c in np.unique(community_of)]
    return float(nx.community.modularity(G, groups))


def check_modularity(value: float, expected: float) -> None:
    if abs(value - expected) > MODULARITY_TOL:
        raise CheckError(f"modularity {value!r}, networkx {expected!r}")
