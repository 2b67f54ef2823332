"""Synthetic labeled graphs: null baselines and planted-signal growth models.

``gen_er`` and ``gen_pref_attach`` provide unlabeled null/contrast
topologies.  ``gen_spatial_gravity`` grows a graph whose attachment favors
high-degree targets in nearby groups, with per-group stub counts; the group
is emitted as a synthetic country label (region = quadrant of the group's
position), which plants a detectable degree-statistics signal when stub
counts are heterogeneous or the distance exponent is large.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import GeoLabels, Graph, graph_from_id_edges

__all__ = [
    "GravityParams",
    "make_gravity_params",
    "gen_er",
    "gen_pref_attach",
    "gen_spatial_gravity",
    "random_group_labels",
]

# added to every group distance before the power, so a group's own decay is finite
DISTANCE_FLOOR = 0.01


def _padded_names(n: int) -> list[str]:
    # zero-padded so lexicographic name order matches generation order
    width = len(str(n - 1))
    return [f"N{i:0{width}d}" for i in range(n)]


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) via geometric edge skipping, O(n + m)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if p == 1.0:
        return graph_from_id_edges(_padded_names(n), *np.triu_indices(n, k=1))
    src: list[int] = []
    dst: list[int] = []
    if p > 0.0:
        rng = np.random.default_rng(seed)
        log_q = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            # a skip past every pair left ends the walk; capped, since a subnormal p gives inf
            w += 1 + int(min(math.log(1.0 - rng.random()) / log_q, n * n))
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                src.append(w)
                dst.append(v)
    return graph_from_id_edges(_padded_names(n), src, dst)


def gen_pref_attach(n: int, m: int, seed: int) -> Graph:
    """Degree-proportional growth from an (m+1)-clique; m distinct edges per arrival."""
    if m < 1 or n <= m:
        raise ValueError(f"need n > m >= 1, got n={n} m={m}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for j in range(1, m + 1) for i in range(j)]
    # node id repeated once per incident edge: sampling it = sampling prop. to degree
    repeated: list[int] = [v for v in range(m + 1) for _ in range(m)]
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, source))
            repeated.append(t)
        repeated.extend([source] * m)
    src, dst = np.array(edges, dtype=np.int64).T
    return graph_from_id_edges(_padded_names(n), src, dst)


@dataclass(frozen=True)
class GravityParams:
    n: int
    groups: int
    positions: np.ndarray = field(repr=False)  # (groups, 2) on the unit square
    stubs: tuple[int, ...]  # per-group attachment edge count
    beta: float
    seed: int
    _decay: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.groups <= self.n:
            raise ValueError("need n >= groups >= 1")
        positions = np.asarray(self.positions, dtype=np.float64)
        if positions.shape != (self.groups, 2):
            raise ValueError(f"positions must be ({self.groups}, 2)")
        if np.any(positions < 0.0) or np.any(positions > 1.0):
            raise ValueError("positions must lie on the unit square")
        stubs = tuple(int(s) for s in self.stubs)
        if len(stubs) != self.groups or any(s < 1 for s in stubs):
            raise ValueError("stubs must give one count >= 1 per group")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"distance exponent must be finite and >= 0, got {self.beta}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "stubs", stubs)
        # in place: at most two (G, G) float64 arrays are alive, 200 MB each at G = 5000
        decay, dy = (np.subtract.outer(c, c) for c in positions.T)
        decay *= decay
        dy *= dy
        decay += dy
        np.sqrt(decay, out=decay)
        decay += DISTANCE_FLOOR
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.power(decay, -self.beta, out=decay)  # checked here, so overflow needs no warning
        decay.flags.writeable = False
        object.__setattr__(self, "_decay", decay)
        if not np.all(np.isfinite(decay) & (decay > 0.0)):
            raise ValueError(
                f"distance decay (d + {DISTANCE_FLOOR:g})^-{self.beta:g} is zero or"
                " not finite for some group pair; lower beta"
            )

    def decay(self) -> np.ndarray:
        """(groups, groups) attachment weights (d(g, h) + floor)^(-beta), read-only."""
        return self._decay


def make_gravity_params(
    n: int,
    groups: int,
    beta: float,
    stubs: tuple[int, ...],
    seed: int,
) -> GravityParams:
    """Build params with seeded group positions; short stub lists are cycled."""
    if not stubs:
        raise ValueError("stubs must give one count >= 1 per group")
    cycled = tuple(stubs[g % len(stubs)] for g in range(groups))
    positions = np.random.default_rng(np.random.SeedSequence([seed, 0])).random((groups, 2))
    return GravityParams(n=n, groups=groups, positions=positions, stubs=cycled, beta=beta, seed=seed)


def _quadrant(position: np.ndarray) -> str:
    return f"Q{2 * int(position[1] >= 0.5) + int(position[0] >= 0.5)}"


# a round whose live weight is below this share of its arrival's total draws
# from weights divided by that total, as Generator.choice does: there a node
# whose share rounds to 0 is never drawn, which raw block sums cannot tell
_UNDERFLOW_SHARE = 2.0**-900


def _block_size(n: int, n_groups: int) -> int:
    """Node ids per block, about sqrt(n G / 32), at least 64 and at most n.

    A round costs i G / B table entries for the block weights (one
    matrix-vector product) and B slots per draw (several numpy passes); the
    32 weighs an entry against a slot, so the table stays O(sqrt(n G)).
    """
    return min(n, max(64, math.isqrt(n * n_groups // 32)))


def _choice_round(x: np.ndarray, weights: np.ndarray, total: float) -> list[int] | None:
    """One round of ``Generator.choice`` as numpy runs it: inverse CDF of weights / total.

    None when every share rounds to 0, so no node can be drawn.
    """
    cdf = np.cumsum(weights / total)
    if not cdf[-1] > 0.0:
        return None
    cdf /= cdf[-1]
    return cdf.searchsorted(x, side="right").tolist()


def _gravity_edges(params: GravityParams) -> tuple[np.ndarray, np.ndarray]:
    """(target, arrival) ids of every gravity edge, in draw order.

    Each arrival's targets are those of ``Generator.choice(i, m_i,
    replace=False, p=probs)`` (numpy 2.x): the same uniforms, round by round,
    each found by inverse CDF.  The search is two-level: a uniform picks a
    block of node ids by the block weights ``mass[:nb] @ decay[g]``, then a
    node inside that block, so an arrival costs O(i G / B + m_i B), not O(i).
    A round left with under ``_UNDERFLOW_SHARE`` of the arrival's weight runs
    ``choice``'s own pass instead (``_choice_round``).
    """
    n, n_groups = params.n, params.groups
    rng = np.random.default_rng(params.seed)
    group_of = np.arange(n, dtype=np.int64) % n_groups
    decay = params.decay()
    m_of = np.minimum(np.array(params.stubs, dtype=np.int64)[group_of], np.arange(n))
    size = _block_size(n, n_groups)
    mass = np.zeros((-(-n // size), n_groups))  # live weight by block and group: exact integers
    cell = mass.ravel()  # a view: node j's cell is (j // size) * n_groups + j % n_groups
    kp1 = [1.0] * n  # degree + 1
    live = np.zeros(n)  # kp1 of each node the arrival may still draw, else 0
    live[0] = cell[0] = 1.0
    cum = np.zeros(mass.shape[0] + 1)  # cum[b + 1]: weight of blocks 0..b
    targets = np.empty(int(m_of.sum()), dtype=np.int64)
    pos = 0
    m_list = m_of.tolist()
    for i in range(1, n):
        m_i = m_list[i]
        row = decay[i % n_groups]
        nb = (i - 1) // size + 1
        found: list[int] = []
        total = 0.0
        while len(found) < m_i:
            x = rng.random(m_i - len(found))
            (mass[:nb] @ row).cumsum(out=cum[1 : nb + 1])
            left = float(cum[nb])
            if not found:
                total = left
                if not math.isfinite(total):
                    raise ValueError(f"gravity weights sum to {total} at arrival {i}; lower beta")
            if left / total < _UNDERFLOW_SHARE:
                drawn = _choice_round(x, live[:i] * row.take(group_of[:i]), total)
                if drawn is None:
                    raise ValueError(f"fewer than {m_i} targets with nonzero weight at arrival {i}")
            else:
                bounds = cum[: nb + 1].tolist()
                drawn = []
                for xt in (x * left).tolist():  # x < 1, so xt < left: a block with weight
                    b = bisect.bisect_right(bounds, xt) - 1
                    start, stop = b * size, (b + 1) * size
                    slot = (live[start:stop] * row.take(group_of[start:stop])).cumsum()
                    s = int(slot.searchsorted(xt - bounds[b], side="right"))
                    if s == len(slot):  # rounding stepped past the block's last live node
                        s = int(slot.searchsorted(slot[-1]))
                    drawn.append(start + s)
            new = list(dict.fromkeys(drawn))
            found += new
            if len(found) < m_i:  # another round: the drawn leave the search
                for j in new:
                    cell[j // size * n_groups + j % n_groups] -= live[j]
                    live[j] = 0.0
        targets[pos : pos + m_i] = found
        pos += m_i
        for j in found:
            kp1[j] += 1.0
        kp1[i] += m_i
        for j in found + [i]:  # into the search at the new weight
            cell[j // size * n_groups + j % n_groups] += kp1[j] - live[j]
            live[j] = kp1[j]
    return targets, np.repeat(np.arange(n, dtype=np.int64), m_of)


def gen_spatial_gravity(params: GravityParams) -> tuple[Graph, GeoLabels]:
    """Grow the gravity graph and emit synthetic country/region labels.

    Node i (group g = i mod G) attaches min(stubs[g], i) edges to distinct
    earlier nodes j by successive sampling with probability proportional to
    (k_j + 1) * (d(g_i, g_j) + floor)^(-beta), where d is the Euclidean
    distance between the group positions.  The draw is numpy's weighted
    sampling without replacement: the same uniforms, rounds and inverse-CDF
    picks as ``Generator.choice``, found by a blocked search
    (``_gravity_edges``), so a seed gives the same graph as a ``choice`` loop.
    """
    n, n_groups = params.n, params.groups
    graph = graph_from_id_edges(_padded_names(n), *_gravity_edges(params))
    width = len(str(n_groups - 1)) if n_groups > 1 else 1
    country = [f"C{g:0{width}d}" for g in range(n_groups)]
    region = [_quadrant(position) for position in params.positions]
    labels = GeoLabels()
    for i, name in enumerate(graph.names):
        labels.country[name] = country[i % n_groups]
        labels.region[name] = region[i % n_groups]
    return graph, labels


def random_group_labels(
    graph: Graph,
    n_groups: int,
    size_range: tuple[int, int],
    seed: int,
) -> GeoLabels:
    """Disjoint uniformly random label groups (structure-blind null labels)."""
    lo, hi = size_range
    if lo < 2 or hi < lo:
        raise ValueError("size range must satisfy 2 <= lo <= hi")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    sizes = rng.integers(lo, hi + 1, size=n_groups)
    if sizes.sum() > graph.n:
        raise ValueError(f"labels need {sizes.sum()} nodes, graph has {graph.n}")
    order = rng.permutation(graph.n)
    labels = GeoLabels()
    width = len(str(n_groups - 1)) if n_groups > 1 else 1
    start = 0
    for g, size in enumerate(sizes):
        for node in order[start : start + size]:
            labels.country[graph.names[node]] = f"G{g:0{width}d}"
        start += int(size)
    return labels
