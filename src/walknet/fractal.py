"""Sierpinski-gasket entanglement structures and their network analytics.

The gasket G(N) lives on the integer triangular lattice: a vertex is an (x, y)
pair of lattice coordinates (unit = one elementary triangle side), so shared
corners deduplicate exactly, with no floating-point tolerance.  An upward
triangle of side ``size`` at position p has corners p, p+(size,0), p+(0,size);
every elementary triangle hosts one 3-party GHZ resource.

Composing the three side-h GHZ triangles inside each side-2h triangle with a
triangle merge (one per composite triangle, (3^N - 1)/2 in total) yields the
apex GHZ over the three outer corners.  Treating every triangle that can be
produced this way as a tripartite channel gives the derived network F(t):
vertex count (3^(t+1) + 3)/2, channel-edge count (3^(t+2) - 3)/2, and the
analytics below (vertex generations, degree law, exponential cumulative degree
distribution, clustering average with its 0.5480 large-t limit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .protocols import draw, triangle_merge_rule
from .qudit import as_dim, as_int, as_seed

Vertex = tuple[int, int]
Triangle = tuple[Vertex, Vertex, Vertex]

MAX_ITERATION = 10


def _corners(pos: Vertex, size: int) -> Triangle:
    x, y = pos
    return ((x, y), (x + size, y), (x, y + size))


@dataclass(frozen=True)
class SierpinskiGasket:
    iteration: int
    triangles: tuple[Triangle, ...]          # elementary GHZ triangles
    vertices: tuple[Vertex, ...]

    @property
    def side_length_units(self) -> int:
        """Side of the whole gasket in elementary-triangle sides (2^N)."""
        return 2**self.iteration


def build_gasket(n: int) -> SierpinskiGasket:
    """G(n): 3^n elementary triangles with shared corners deduplicated."""
    if not 0 <= (n := as_int(n, "n")) <= MAX_ITERATION:
        raise ValueError(f"iteration must be in [0, {MAX_ITERATION}]")
    triangles = tuple(sorted(_corners(p, 1) for p in _composite_positions(n, 0)))
    vertices = tuple(sorted({v for tri in triangles for v in tri}))
    return SierpinskiGasket(iteration=n, triangles=triangles, vertices=vertices)


# ---------------------------------------------------------------------------
# Triangle-merge schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleMergeStep:
    """Merge the three side-h GHZ triangles inside the side-2h triangle at pos.

    Inputs are the corner triples of the lower-left, lower-right, and upper
    sub-triangles (in that role order); output is the corner triple of the
    composed triangle.
    """

    level: int               # output side = 2**level
    pos: Vertex
    inputs: tuple[Triangle, Triangle, Triangle]
    output: Triangle


def merge_schedule(n: int) -> list[TriangleMergeStep]:
    """Bottom-up composition plan for G(n): exactly (3^n - 1)/2 merges."""
    if not 1 <= (n := as_int(n, "n")) <= MAX_ITERATION:
        raise ValueError(f"iteration must be in [1, {MAX_ITERATION}]")
    steps = []
    for level in range(1, n + 1):
        size = 2**level
        h = size // 2
        positions = sorted(_composite_positions(n, level))
        for x, y in positions:
            steps.append(TriangleMergeStep(
                level=level, pos=(x, y),
                inputs=(_corners((x, y), h), _corners((x + h, y), h),
                        _corners((x, y + h), h)),
                output=_corners((x, y), size)))
    return steps


def _composite_positions(n: int, level: int) -> list[Vertex]:
    if level == n:
        return [(0, 0)]
    half = 2 ** (n - 1)
    prev = _composite_positions(n - 1, level)
    return [(x + dx, y + dy) for dx, dy in ((0, 0), (half, 0), (0, half))
            for x, y in prev]


@dataclass
class MergeRunResult:
    iteration: int
    d: int
    merge_count: int
    final_corners: Triangle
    fidelity: float
    corrections: list[str] = field(default_factory=list)   # per merge, schedule order


def execute_merge_schedule(n: int, d: int = 2, seed: int = 0) -> MergeRunResult:
    """Sample the whole composition, one branch per merge.

    Each merge is a local nine-site event over three GHZ triples, the
    triangle merge of ``protocols``: coin-X walks across each shared corner
    at d = 2, the two-stage identity-coin merge at d > 2.  Every input triple
    is the canonical GHZ that the previous correction restored, so all
    merges share one law, read off the circuit (``triangle_merge_rule``): its
    k free readouts are uniform, at every d: the digits of each merge's index
    from one ``protocols.draw`` block, in schedule order, with its label read
    off the law's ``Frame``.  Each correction restores the canonical GHZ
    exactly, so ``fidelity`` is 1.0; nothing is built, so only the draw
    bounds d: d^5 <= 2^53, refused before any draw.
    """
    n, d, seed = as_int(n, "n"), as_dim(d), as_seed(seed)
    if not 1 <= n <= MAX_ITERATION:
        raise ValueError(f"iteration must be in [1, {MAX_ITERATION}]")
    law = triangle_merge_rule(d, d == 2)
    k, count = law.k, (3**n - 1) // 2   # the length of merge_schedule(n)
    drawn = draw(seed, d**k, count, f"a gasket at d={d} has d^{k} > 2^53 merge outcomes")
    return MergeRunResult(
        iteration=n, d=d, merge_count=count, final_corners=_corners((0, 0), 2**n),
        fidelity=1.0, corrections=list(map(law.label, drawn)))


# ---------------------------------------------------------------------------
# Derived network F(t)
# ---------------------------------------------------------------------------

@dataclass
class FractalNetwork:
    iteration: int
    vertices: tuple[Vertex, ...]
    channels: tuple[Triangle, ...]           # tripartite channels, all scales
    adjacency: dict[Vertex, set[Vertex]] = field(repr=False, default_factory=dict)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return sorted({tuple(sorted((u, v))) for u, nbrs in self.adjacency.items()
                       for v in nbrs})

    def generation(self, v: Vertex) -> int:
        """Iteration at which vertex v first appears (0 for the outer corners)."""
        t = self.iteration
        x, y = v
        s = 0
        while s < t and x % (2 ** (s + 1)) == 0 and y % (2 ** (s + 1)) == 0:
            s += 1
        return t - s

    def to_adjacency_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "nodes": [list(v) for v in self.vertices],
            "adjacency": {f"{x},{y}": sorted([list(w) for w in self.adjacency[(x, y)]])
                          for x, y in self.vertices},
        }

    def to_edge_list(self) -> str:
        lines = [f"{u[0]},{u[1]} {v[0]},{v[1]}" for u, v in self.edges()]
        return "\n".join(lines) + "\n"


def build_quantum_network(t: int) -> FractalNetwork:
    """F(t): gasket vertices plus one tripartite channel per composable triangle."""
    if not 0 <= (t := as_int(t, "t")) <= MAX_ITERATION:
        raise ValueError(f"iteration must be in [0, {MAX_ITERATION}]")
    channels: list[Triangle] = []
    for s in range(t + 1):
        size = 2**s
        for pos in _composite_positions(t, s):
            channels.append(_corners(pos, size))
    vertices = tuple(sorted({v for tri in channels for v in tri}))
    adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in vertices}
    for tri in channels:
        for u, v in itertools.combinations(tri, 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
    return FractalNetwork(iteration=t, vertices=vertices,
                          channels=tuple(sorted(channels)), adjacency=adjacency)


# ---------------------------------------------------------------------------
# Analytics
# ---------------------------------------------------------------------------

def vertex_count(t: int) -> int:
    return (3 ** (t + 1) + 3) // 2


def edge_count(t: int) -> int:
    return (3 ** (t + 2) - 3) // 2


def average_degree(t: int) -> Fraction:
    return Fraction(2 * edge_count(t), vertex_count(t))


def degree_of_generation(t: int, t_i: int) -> int:
    """Degree in F(t) of a generation-t_i vertex (t_i >= 1)."""
    return 4 * (t - t_i + 1)


def neighbor_link_count(k: int) -> Fraction:
    """Edges among the neighbors of a non-corner vertex of degree k."""
    return 4 + Fraction(3, 2) * (k - 4)


def cumulative_degree_fraction(t: int, k: int) -> Fraction:
    """Fraction of vertices with degree >= k (non-corner generations only)."""
    if k % 4:
        raise ValueError("degrees in F(t) are multiples of 4")
    t_i = t - k // 4 + 1
    if t_i < 1:
        return Fraction(0)
    return Fraction(3 ** (t_i + 1) - 3, 3 ** (t + 1) + 3)


def cumulative_degree_limit(k: int) -> float:
    """Large-t form 3 * exp(-ln(3) * k / 4) of the cumulative distribution."""
    return 3.0 * math.exp(-math.log(3.0) * k / 4.0)


def clustering_formula(t: int) -> Fraction:
    """Average clustering coefficient of F(t), exact rational arithmetic.

    Sum over vertex generations of weight 3^{t_i} / (3^{t+1}+3) times
    4e/(k(k-1)), plus the three outer corners' term
    6/(3^{t+1}+3) * (3t+1)/((t+1)(2t+1)).
    """
    if (t := as_int(t, "t")) < 1:
        raise ValueError("t must be >= 1")
    denom = 3 ** (t + 1) + 3
    total = Fraction(0)
    for t_i in range(1, t + 1):
        k = degree_of_generation(t, t_i)
        e = neighbor_link_count(k)
        total += Fraction(3**t_i, denom) * (4 * e) / (k * (k - 1))
    total += Fraction(6, denom) * Fraction(3 * t + 1, (t + 1) * (2 * t + 1))
    return total


CLUSTERING_LIMIT = 0.5480


@dataclass
class AnalyticsRecord:
    t: int
    n_vertices: int
    n_edges: int
    avg_degree: float
    clustering: float
    degree_classes: list[dict]          # per generation: t_i, count, k, e
    cumulative: list[dict]              # per k: finite fraction and limit form
    brute: dict | None = None           # constructed-graph cross-check (t <= 6)

    def to_dict(self) -> dict:
        out = {
            "t": self.t, "vertices": self.n_vertices, "edges": self.n_edges,
            "avg_degree": self.avg_degree, "clustering": self.clustering,
            "degree_classes": self.degree_classes, "cumulative": self.cumulative,
        }
        if self.brute is not None:
            out["brute_force"] = self.brute
        return out

    def csv_row(self) -> str:
        brute_c = "" if self.brute is None else f"{self.brute['clustering']:.12f}"
        return (f"{self.t},{self.n_vertices},{self.n_edges},"
                f"{self.avg_degree:.12f},{self.clustering:.12f},{brute_c}")


CSV_HEADER = "t,vertices,edges,avg_degree,clustering_formula,clustering_brute"

BRUTE_FORCE_MAX_T = 6


def analytics(t: int) -> AnalyticsRecord:
    """Closed-form analytics of F(t); constructed-graph cross-check for t <= 6.

    Valid for 1 <= t <= 30 (graph construction itself stops at t = 10; above
    that only the closed forms are meaningful, so only t <= BRUTE_FORCE_MAX_T
    carries the brute-force block)."""
    if not 1 <= (t := as_int(t, "t")) <= 30:
        raise ValueError("t must be in [1, 30]")
    degree_classes = []
    for t_i in range(1, t + 1):
        k = degree_of_generation(t, t_i)
        degree_classes.append({
            "generation": t_i, "count": 3**t_i, "degree": k,
            "neighbor_links": float(neighbor_link_count(k)),
        })
    cumulative = []
    for t_i in range(1, t + 1):
        k = degree_of_generation(t, t_i)
        cumulative.append({
            "k": k,
            "finite": float(cumulative_degree_fraction(t, k)),
            "limit_form": cumulative_degree_limit(k),
        })
    record = AnalyticsRecord(
        t=t,
        n_vertices=vertex_count(t),
        n_edges=edge_count(t),
        avg_degree=float(average_degree(t)),
        clustering=float(clustering_formula(t)),
        degree_classes=degree_classes,
        cumulative=cumulative,
    )
    if t <= BRUTE_FORCE_MAX_T:
        record.brute = brute_force_stats(build_quantum_network(t))
    return record


def brute_force_stats(net: FractalNetwork) -> dict:
    """Degree histogram, clustering, and neighbor-link counts by direct count."""
    t = net.iteration
    degs = {v: len(net.adjacency[v]) for v in net.vertices}
    corner_set = {v for v in net.vertices if net.generation(v) == 0}
    clustering_total = 0.0
    neighbor_links: dict[Vertex, int] = {}
    for v in net.vertices:
        nbrs = net.adjacency[v]
        k = len(nbrs)
        # each link among the neighbours is seen from both of its ends
        links = sum(len(nbrs & net.adjacency[a]) for a in nbrs) // 2
        neighbor_links[v] = links
        if k >= 2:
            clustering_total += 2 * links / (k * (k - 1))
    hist: dict[int, int] = {}
    for v, k in degs.items():
        hist[k] = hist.get(k, 0) + 1
    expected = {k: float(neighbor_link_count(k)) for k in hist}
    cumulative = []
    n = len(net.vertices)
    for t_i in range(1, t + 1):
        k = degree_of_generation(t, t_i)
        count = sum(1 for v in net.vertices
                    if v not in corner_set and degs[v] >= k)
        cumulative.append({"k": k, "fraction": count / n})
    return {
        "vertices": n,
        "edges": net.edge_count,
        "degree_histogram": {str(k): c for k, c in sorted(hist.items())},
        "clustering": clustering_total / n,
        "corner_degree": sorted({degs[v] for v in corner_set}),
        "cumulative": cumulative,
        "max_neighbor_link_error": max(
            abs(neighbor_links[v] - expected[degs[v]])
            for v in net.vertices if v not in corner_set) if t >= 1 else 0.0,
    }
