"""Entanglement distribution over resource networks.

A network is a set of nodes plus elementary entangled resources (Bell pairs on
edges, optionally GHZ triples and larger).  Distributing a GHZ state to a
chosen terminal set proceeds in three stages:

1. steiner_tree     -- near-minimal tree spanning the terminals (metric-closure
                       MST 2-approximation, or exhaustive exact search).
2. plan_distribution -- an ordered, node-local merge plan over the tree's Bell
                       resources.  Degree-2 relay nodes are contracted first
                       (Bell swap), then branching nodes gather their subtree
                       resources bottom-up with multi-coin star merges, and the
                       final pair of resources is joined by a coin-free
                       parallel-walk merge.
3. execute_schedule -- one pass over the plan checks every step's inputs,
                       parties and circuit, keys its shape, and
                       checks that a single resource over the terminals (none
                       for a lone terminal) is left; symbolic mode returns
                       that pass's ledger of party sets.  Simulated mode then
                       samples the plan: each step is a qudit Clifford
                       circuit, so its outcome is k uniform digits, one per
                       readout, and its correction label is read off its
                       frame (``_step_law``); no amplitude or operator is built.

All planning is deterministic: ties break on node id, and every randomized
execution path draws from one seeded generator.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .protocols import Frame, Law, draw
from .qudit import SIZE_CAP, as_dim, as_int, as_seed


class NetworkError(ValueError):
    pass


@dataclass(frozen=True)
class Resource:
    kind: str                 # "bell" | "ghz"
    parties: tuple[int, ...]  # node ids, one site per node

    def __post_init__(self):
        if self.kind == "bell" and len(self.parties) != 2:
            raise NetworkError("bell resources have exactly 2 parties")
        if self.kind == "ghz" and len(self.parties) < 3:
            raise NetworkError("ghz resources have at least 3 parties")
        if self.kind not in ("bell", "ghz"):
            raise NetworkError(f"unknown resource kind {self.kind!r}")
        if len(set(self.parties)) != len(self.parties):
            raise NetworkError("resource parties must be distinct nodes")


@dataclass
class ResourceNetwork:
    local_dim: int
    nodes: dict[int, str]           # id -> label
    resources: list[Resource]

    def validate(self) -> None:
        if not self.nodes:
            raise NetworkError("network has no nodes")
        as_dim(self.local_dim, "local_dim", NetworkError)
        for res in self.resources:
            for p in res.parties:
                if p not in self.nodes:
                    raise NetworkError(f"resource references unknown node {p}")

    def adjacency(self) -> dict[int, set[int]]:
        return _adjacency(self.nodes, (pair for res in self.resources
                                       for pair in itertools.combinations(res.parties, 2)))

    def bell_edge_pool(self) -> dict[tuple[int, int], list[int]]:
        pool: dict[tuple[int, int], list[int]] = {}
        for i, res in enumerate(self.resources):
            if res.kind == "bell":
                key = tuple(sorted(res.parties))
                pool.setdefault(key, []).append(i)
        return pool


def load_network(path: str | Path) -> ResourceNetwork:
    """Read and validate a network JSON file.

    Schema: {"local_dim": int, "nodes": [{"id": int, "label": str}],
    "resources": [{"kind": "bell"|"ghz", "parties": [int, ...]}]}.  A
    top-level "comment" field is tolerated and ignored.
    """
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise NetworkError("network file must hold a JSON object")
    extra = set(blob) - {"local_dim", "nodes", "resources", "comment"}
    if extra:
        raise NetworkError(f"unknown fields in network file: {sorted(extra)}")
    try:
        ids = [_json_int(n["id"], "node id") for n in blob["nodes"]]
        if len(set(ids)) != len(ids):
            raise NetworkError("duplicate node ids in network file")
        labels = [n.get("label", str(n["id"])) for n in blob["nodes"]]
        if bad := [lab for lab in labels if not isinstance(lab, str)]:
            raise NetworkError(f"node label {bad[0]!r} is not a JSON string")
        nodes = dict(zip(ids, labels))
        resources = [Resource(kind=r["kind"],
                              parties=tuple(_json_int(p, "resource party") for p in r["parties"]))
                     for r in blob["resources"]]
        net = ResourceNetwork(local_dim=_json_int(blob.get("local_dim", 2), "local_dim"),
                              nodes=nodes, resources=resources)
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed network file: {exc}") from exc
    net.validate()
    return net


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer: no bool, float or string."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise NetworkError(f"{field} {value!r} is not a JSON integer")
    return value


def bundled_network_path() -> Path:
    """Path of the package's 14-node demo network."""
    return Path(__file__).parent / "data" / "network14.json"


# ---------------------------------------------------------------------------
# Steiner tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteinerTree:
    terminals: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.terminals).union(*self.edges)

    @property
    def steiner_nodes(self) -> frozenset[int]:
        return self.nodes - self.terminals

    def adjacency(self) -> dict[int, set[int]]:
        return _adjacency(self.nodes, self.edges)

    def check(self) -> None:
        if not self.terminals:
            raise NetworkError("no terminals")
        if not self.edges:
            if len(self.nodes) != 1:
                raise NetworkError("empty edge set with several nodes")
            return
        if len(self.edges) != len(self.nodes) - 1:
            raise NetworkError("edge count is not |nodes|-1 (not a tree)")
        adj = self.adjacency()
        if _bfs_dist(adj, min(self.nodes)).keys() != self.nodes:
            raise NetworkError("tree is not connected")
        for v, nbrs in adj.items():
            if len(nbrs) == 1 and v not in self.terminals:
                raise NetworkError(f"non-terminal leaf {v}")


def _adjacency(nodes, pairs) -> dict[int, set[int]]:
    adj = {v: set() for v in nodes}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bfs_dist(adj: dict[int, set[int]], src: int, parent: dict | None = None) -> dict[int, int]:
    """Hop distance from src to every reachable node; ``parent``, if given,
    receives each node's BFS parent.  Neighbours are visited in id order, so
    the parents spell out each node's lexicographically least shortest path."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    if parent is not None:
                        parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return dist


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _prune_to_tree(edges: set[tuple[int, int]], terminals: set[int]) -> frozenset[tuple[int, int]]:
    """Spanning tree of the edge union, then strip non-terminal leaves."""
    nodes = {v for e in edges for v in e}
    uf = _UnionFind(nodes)
    tree = {e for e in sorted(edges) if uf.union(*e)}
    adj = _adjacency(nodes, tree)
    leaves = [v for v, nbrs in adj.items() if len(nbrs) == 1 and v not in terminals]
    while leaves:  # the order leaves go in does not change the result
        v = leaves.pop()
        if not adj[v]:  # its last edge went with its neighbour
            continue
        (w,) = adj[v]
        adj[w].remove(v)
        tree.remove((v, w) if v < w else (w, v))
        if len(adj[w]) == 1 and w not in terminals:
            leaves.append(w)
    return frozenset(tree)


def steiner_tree(net: ResourceNetwork, terminals, exact: bool = False) -> SteinerTree:
    """Tree spanning ``terminals``, near-minimal in edge count.

    Default: metric-closure MST (2-approximation) with lexicographic
    tie-breaking throughout, so identical inputs give identical trees.
    ``exact=True`` searches non-terminal subsets exhaustively (allowed up to
    16 non-terminals) and returns a provably edge-minimal tree.
    """
    net.validate()
    terminals = sorted({as_int(t, "terminal", NetworkError) for t in terminals})
    if not terminals:
        raise NetworkError("terminal set is empty")
    for t in terminals:
        if t not in net.nodes:
            raise NetworkError(f"terminal {t} not in network")
    if len(terminals) == 1:
        return SteinerTree(frozenset(terminals), frozenset())

    adj = net.adjacency()
    parents = {terminals[0]: {}}
    reach = _bfs_dist(adj, terminals[0], parents[terminals[0]])
    if any(t not in reach for t in terminals):
        raise NetworkError("terminals are not connected in the network")

    if exact:
        others = sorted(set(net.nodes) - set(terminals))
        if len(others) > 16:
            raise NetworkError("exact mode supports at most 16 non-terminal nodes")
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                chosen = set(terminals) | set(extra)
                sub = {v: adj[v] & chosen for v in chosen}
                if _bfs_dist(sub, terminals[0]).keys() != chosen:
                    continue
                edges = {(u, w) for u in chosen for w in sub[u] if u < w}
                tree = SteinerTree(frozenset(terminals), _prune_to_tree(edges, set(terminals)))
                tree.check()
                return tree
        raise NetworkError("no connecting tree found")  # unreachable if connected

    # metric closure over terminals: one BFS per terminal; each closure edge
    # the MST keeps is the BFS-parent path, the lexicographically least one
    closure = [(reach[t], terminals[0], t) for t in terminals[1:]]
    for i, u in enumerate(terminals[1:-1], start=1):
        parents[u] = {}
        dist = _bfs_dist(adj, u, parents[u])
        closure.extend((dist[v], u, v) for v in terminals[i + 1:])
    closure.sort()
    uf = _UnionFind(terminals)
    union_edges: set[tuple[int, int]] = set()
    for _, u, v in closure:
        if uf.union(u, v):
            while v != u:
                w = parents[u][v]
                union_edges.add((w, v) if w < v else (v, w))
                v = w
    tree = SteinerTree(frozenset(terminals), _prune_to_tree(union_edges, set(terminals)))
    tree.check()
    return tree


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleStep:
    """One node-local merge.

    action "pair-merge": the node holds one particle of each of two input
    resources; the first is the coin (identity coin), the second the walk
    position; both are measured and the outputs join.
    action "star-merge": every coin input contributes its node-local particle
    as a Fourier coin shifting onto the position resource's local particle;
    the position resource is a Bell pair whose far particle receives the
    inverse Fourier.  With local_role "coin" a freshly prepared local Bell
    pair donates a coin and leaves its partner at the node (node retention);
    with local_role "position" the local pair itself is the position pair.
    action "release": Fourier-measure the resource's particle at the node,
    dropping the node from the party set.
    """

    node: int
    action: str
    protocol: str
    coin_inputs: tuple[str, ...]
    position_input: str | None
    local_pair: str | None
    local_role: str | None
    output_id: str
    output_parties: tuple[int, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        """The consumed resource ids: the coins, then the position."""
        return self.coin_inputs + (() if self.position_input is None else (self.position_input,))

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "action": self.action,
            "protocol": self.protocol,
            "coins": list(self.coin_inputs),
            "position": self.position_input,
            "local_pair": self.local_pair,
            "local_role": self.local_role,
            "output": self.output_id,
            "output_parties": list(self.output_parties),
        }


@dataclass
class SwapSchedule:
    terminals: tuple[int, ...]
    initial: dict[str, Resource]          # resource id -> elementary resource
    steps: list[ScheduleStep] = field(default_factory=list)

    @property
    def acting_nodes(self) -> list[int]:
        return [s.node for s in self.steps]

    def to_dict(self) -> dict:
        return {
            "terminals": list(self.terminals),
            "initial_resources": {
                rid: {"kind": r.kind, "parties": list(r.parties)}
                for rid, r in sorted(self.initial.items())
            },
            "steps": [s.to_dict() for s in self.steps],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _tree_center(adj: dict[int, set[int]]) -> int:
    """The tree's least-eccentricity node, smaller id on a tie: the middle of
    a longest path, found from a sweep to one end and a sweep back."""
    first = _bfs_dist(adj, min(adj))
    end = max(first, key=first.get)
    parent: dict[int, int] = {}
    dist = _bfs_dist(adj, end, parent)
    v = max(dist, key=dist.get)
    length = dist[v]
    for _ in range(length // 2):
        v = parent[v]
    return min(v, parent[v]) if length % 2 else v


_ACTION_PROTOCOL = {"pair-merge": "ghz-parallel-d", "star-merge": "ghz-from-bells-d",
                    "release": "fourier-release"}


def plan_distribution(tree: SteinerTree, net: ResourceNetwork) -> SwapSchedule:
    """Merge plan turning per-edge Bell resources into a terminal-set GHZ.

    Stage 1 contracts every non-terminal node of tree degree 2, deepest first,
    with a pair merge of its two Bell pairs; the result is again a tree of
    Bell pairs.  Stage 2 walks that tree bottom-up from its centre: each
    branching node star-merges its children's resources onto the Bell pair
    to its parent, and the root joins what arrives.

    Raises NetworkError when some tree edge has no Bell resource available.
    """
    tree.check()
    terminals = tuple(sorted(tree.terminals))
    if not tree.edges:
        return SwapSchedule(terminals=terminals, initial={})

    pool = net.bell_edge_pool()
    initial: dict[str, Resource] = {}
    live: dict[str, tuple[int, ...]] = {}        # id -> parties
    at: dict[int, set[str]] = {v: set() for v in tree.nodes}   # node -> live ids
    for i, edge in enumerate(sorted(tree.edges)):
        avail = pool.get(edge, [])
        if not avail:
            raise NetworkError(f"no elementary Bell resource on tree edge {edge}")
        rid = f"r{i}"
        initial[rid] = net.resources[avail.pop(0)]
        live[rid] = initial[rid].parties
        for v in edge:
            at[v].add(rid)

    steps: list[ScheduleStep] = []
    local_ids = (f"l{i}" for i in itertools.count())
    term_set = set(terminals)

    def add(v: int, action: str, coins, position: str | None = None,
            local_role: str | None = None) -> str:
        """Append one step at node v; its output replaces its inputs in live and at."""
        inputs = list(coins) + ([position] if position is not None else [])
        parties = [p for rid in coins for p in live[rid] if p != v]
        if local_role is not None:
            parties.append(v)
        if position is not None:
            parties.extend(p for p in live[position] if p != v)
        out = f"m{len(steps)}"
        steps.append(ScheduleStep(
            node=v, action=action, protocol=_ACTION_PROTOCOL[action],
            coin_inputs=tuple(coins), position_input=position,
            local_pair=next(local_ids) if local_role is not None else None,
            local_role=local_role, output_id=out, output_parties=tuple(parties)))
        for rid in inputs:
            for p in live.pop(rid):
                at[p].discard(rid)
        live[out] = tuple(parties)
        for p in parties:
            at[p].add(out)
        return out

    # stage 1: contract the non-terminal relays, deepest first
    adj = tree.adjacency()
    depth = _bfs_dist(adj, _tree_center(adj))
    relays = [v for v in adj if len(adj[v]) == 2 and v not in term_set]
    for v in sorted(relays, key=lambda x: (-depth[x], x)):
        r1, r2 = sorted(at[v])
        add(v, "pair-merge", (r1,), r2)

    # stage 2: bottom-up gathering on the contracted tree
    cadj = _adjacency([v for v, ids in at.items() if ids], live.values())
    bell = {frozenset(parties): rid for rid, parties in live.items()}
    depth = _bfs_dist(cadj, _tree_center(cadj))
    up: dict[int, str] = {}      # the resource carrying a subtree to its parent
    for v in sorted(cadj, key=lambda x: (-depth[x], x)):
        kids = sorted(w for w in cadj[v] if depth[w] > depth[v])
        if not kids:
            continue
        kid_res = [up[c] if c in up else bell[frozenset((c, v))] for c in kids]
        retain = v in term_set
        if depth[v]:
            (p,) = (w for w in cadj[v] if depth[w] < depth[v])
            up[v] = add(v, "star-merge", kid_res, bell[frozenset((v, p))],
                        "coin" if retain else None)
        elif len(kid_res) > 1:  # a root with one kid is a terminal holding the GHZ
            position = next((r for r in kid_res if len(live[r]) == 2), None)
            if position is not None:
                add(v, "star-merge", [r for r in kid_res if r != position], position,
                    "coin" if retain else None)
            else:
                out = add(v, "star-merge", kid_res, None, "position")
                if not retain:
                    add(v, "release", (out,))

    if len(live) != 1:
        raise NetworkError(f"planning left {len(live)} resources, expected 1")
    final_parties = next(iter(live.values()))
    if set(final_parties) != term_set:
        raise NetworkError(
            f"planned output spans {sorted(set(final_parties))}, wanted {terminals}")
    return SwapSchedule(terminals=terminals, initial=initial, steps=steps)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class DistributionResult:
    mode: str
    terminals: tuple[int, ...]
    step_count: int
    resources_consumed: int
    final_parties: tuple[int, ...]
    fidelity: float | None = None
    ledger: list[dict] = field(default_factory=list)
    outcomes: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "terminals": list(self.terminals),
            "steps": self.step_count,
            "resources_consumed": self.resources_consumed,
            "final_parties": list(self.final_parties),
        }
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.ledger:
            out["ledger"] = self.ledger
        if self.outcomes:
            out["outcomes"] = self.outcomes
        return out


def _shape(step: ScheduleStep, live: dict[str, tuple[int, ...]]) -> tuple:
    """The key of the step's law, ``_step_law``'s arguments after d:
    its inputs' parties recoded as their index in the output parties, so the
    output order is part of it.  ``live`` maps resource ids to party tuples."""
    slot = {p: k for k, p in enumerate(step.output_parties)}
    node_slot = slot.pop(step.node, -1)
    slot[step.node] = -1
    try:
        codes = tuple(tuple(slot[p] for p in live[rid]) for rid in step.inputs)
    except KeyError as exc:
        raise NetworkError(f"step at node {step.node}: party {exc} is neither the "
                           f"acting node nor an output party") from None
    return step.action, step.local_role, node_slot, len(step.coin_inputs), codes


@lru_cache(maxsize=None)
def _step_circuit(action: str, local_role: str | None, node_slot: int, n_coins: int,
                  codes: tuple[tuple[int, ...], ...]) -> tuple:
    """One step shape's circuit as labels: (inputs, coins, pos, far, outputs).

    ``codes`` holds one tuple per input resource (coins, then the position):
    each party's index in the step's output parties, -1 for the acting node.
    Particle j of input i is (i, j); the local pair, if any, is ("l", 0),
    ("l", 1), its partner staying at the node, output slot ``node_slot``.
    ``inputs`` lists each added resource's labels; ``coins`` are read in the
    Fourier basis, ``pos`` computationally, ``far`` takes a star merge's
    inverse Fourier, and ``outputs`` are the rest in output-party order.
    Refuses (NetworkError) all but a pair merge, a release and a star merge
    onto a two-party position, and unread particles that do not map one to
    one onto the output parties.
    """
    n_pos = len(codes) - n_coins
    if not {"pair-merge": (n_coins, n_pos, local_role) == (1, 1, None),
            "release": (n_coins, n_pos, local_role) == (1, 0, None),
            "star-merge": n_pos == 1 and local_role in (None, "coin") and len(codes[-1]) == 2
            or n_pos == 0 and local_role == "position"}.get(action):
        raise NetworkError(f"{action} step with {n_coins} coins, {len(codes)} inputs and "
                           f"local role {local_role} is not a pair merge, a release or "
                           f"a star merge onto a two-party position")
    inputs = tuple(tuple((i, j) for j in range(len(code))) for i, code in enumerate(codes))
    code_of = {(i, j): c for i, code in enumerate(codes) for j, c in enumerate(code)}
    coins = [(i, code.index(-1)) for i, code in enumerate(codes)]  # the node's particles
    pos = coins.pop() if n_pos else None
    far = (n_coins, 1 - pos[1]) if n_pos else None
    if local_role is not None:
        inputs += ((("l", 0), ("l", 1)),)
        code_of[("l", 0)], code_of[("l", 1)] = -1, node_slot
        if local_role == "coin":
            coins.append(("l", 0))
        else:
            pos, far = ("l", 0), ("l", 1)
    read = {*coins, pos}
    outputs = sorted((lab for lab in code_of if lab not in read), key=code_of.get)
    if [code_of[lab] for lab in outputs] != list(range(len(outputs))):
        raise NetworkError(f"{action} leaves particles that do not match its "
                           f"output parties")
    return inputs, tuple(coins), pos, far, tuple(outputs)


@lru_cache(maxsize=None)
def _step_law(d: int, action: str, local_role: str | None, node_slot: int,
              n_coins: int, codes: tuple[tuple[int, ...], ...]) -> Law:
    """Law of one step shape (``_step_circuit``'s arguments after d), read off
    its circuit, with k readouts, the coins then ``pos``.  Each step is a qudit
    Clifford circuit on canonical inputs, so all d^k outcomes v are kept, each
    at probability d^-k, in product order, and v leaves
    sum_r w^(-x r) |..., r + a_j, ...> over the outputs.  A star
    merge's v = (q_1 .. q_K, u0) shifts every particle of coin k's resource
    (a local coin pair's partner too) by a = q_k and has x = u0; a pair
    merge's v = (k0, u0) shifts the position resource's particles by u0 and
    has x = k0; a release's v = (k0,) shifts nothing and has x = k0.  Every
    other a is 0.  ``frame(v)`` is its ``Frame``; no operator is built."""
    _, coins, pos, _, outputs = _step_circuit(action, local_role, node_slot, n_coins, codes)
    k = len(coins) + (pos is not None)
    # the readout that shifts each resource (a label's first entry), and the clock's
    if action == "star-merge":
        shifts, clock = {lab[0]: i for i, lab in enumerate(coins)}, k - 1
    else:
        shifts, clock = {} if pos is None else {pos[0]: 1}, 0
    return _affine_law(d, k, tuple(shifts.get(lab[0]) for lab in outputs), clock)


@lru_cache(maxsize=None)
def _affine_law(d: int, k: int, source: tuple, clock: int) -> Law:
    """The one law of every step shape with a_j = v[source[j]] (0 for None), x = v[clock]."""
    def frame(v) -> Frame:
        a, x = [0 if i is None else v[i] for i in source], v[clock]
        phase = cmath.exp(-2j * math.pi * (x * a[0] % d) / d) if x * a[0] % d else 1.0
        return Frame(d, tuple((j, s - a[0]) for j, s in enumerate(a)), x, global_phase=phase)
    return Law(d, k, frame)


def execute_schedule(schedule: SwapSchedule, mode: str = "simulated",
                     d: int = 2, seed: int = 0) -> DistributionResult:
    """Run a schedule to completion.

    One pass over the steps checks each step's inputs, parties and circuit
    (``_step_circuit``), keys its shape and records its ledger entry; every
    step must leave two or more parties, and the schedule must end in a single
    resource over the terminals (none for a lone terminal).  A bad schedule is
    refused there in either mode, before anything is sampled.
    symbolic: returns the ledger of that pass.
    simulated: one sampled branch per step, its digits and label read off one
    index of one ``protocols.draw`` block (``_step_law``, ``Law``), made after the
    checks and the cap refusal, which refuses a step past 2^53 outcomes.  Each
    correction restores the canonical GHZ, so every fidelity is 1.0.
    The cap applies per merge event rather than to the whole network, on the
    step's input sites: a schedule with any step over it is refused before
    the first draw.
    """
    if mode not in ("symbolic", "simulated"):
        raise NetworkError(f"unknown mode {mode!r}")
    d, seed = as_dim(d, "d", NetworkError), as_seed(seed, NetworkError)
    terminals = schedule.terminals
    consumed = len(schedule.initial) + sum(s.local_role is not None for s in schedule.steps)
    live = {rid: res.parties for rid, res in schedule.initial.items()}
    ledger, shapes = [], []
    for step in schedule.steps:
        for rid in step.inputs:
            if rid not in live:
                raise NetworkError(f"step consumes unknown resource {rid}")
            if step.node not in live[rid]:
                raise NetworkError(f"resource {rid} has no particle at node {step.node}")
        if len(step.output_parties) < 2:
            raise NetworkError(f"step at node {step.node} leaves a one-party resource")
        if (step.local_pair is None) != (step.local_role is None):
            raise NetworkError(f"step at node {step.node} has local pair {step.local_pair} "
                               f"but local role {step.local_role}")
        shapes.append(_shape(step, live))
        inputs, coins, pos, _, outputs = _step_circuit(*shapes[-1])
        if len(outputs) != len(step.output_parties):
            raise NetworkError(f"step at node {step.node} leaves {len(outputs)} particles "
                               f"for {len(step.output_parties)} output parties")
        for rid in step.inputs:
            del live[rid]
        live[step.output_id] = step.output_parties
        ledger.append({"node": step.node, "action": step.action,
                       "sites_in": sum(map(len, inputs)),
                       "measured": len(coins) + (pos is not None),
                       "output": step.output_id,
                       "parties": list(step.output_parties)})
    # nothing live reads as the first terminal alone: right for a lone terminal only
    (final_parties, *rest) = list(live.values()) or [terminals[:1]]
    if rest or set(final_parties) != set(terminals):
        raise NetworkError(
            f"execution finished with resources {sorted(live.values())}, "
            f"expected a single one over {list(terminals)}")
    if mode == "symbolic":
        return DistributionResult(
            mode="symbolic", terminals=terminals, step_count=len(schedule.steps),
            resources_consumed=consumed, final_parties=final_parties, ledger=ledger)

    for entry in ledger:
        if d ** entry["sites_in"] > SIZE_CAP:
            raise NetworkError(
                f"step at node {entry['node']} needs {entry['sites_in']} live sites at "
                f"d={d}; over the dense cap -- use symbolic mode")
    laws = [_step_law(d, *shape) for shape in shapes]
    drawn = draw(seed, [d**law.k for law in laws], len(laws),
                 f"a step at d={d} has more than 2^53 outcomes", NetworkError)
    outcomes = [{"node": step.node, "action": step.action,
                 "outcome": list(law.outcome(i)), "correction": law.label(i),
                 "step_fidelity": 1.0}
                for step, law, i in zip(schedule.steps, laws, drawn)]
    return DistributionResult(
        mode="simulated", terminals=terminals, step_count=len(schedule.steps),
        resources_consumed=consumed, final_parties=final_parties, fidelity=1.0, outcomes=outcomes)


def distribute(net: ResourceNetwork, terminals, mode: str = "simulated",
               d: int | None = None, seed: int = 0,
               exact_steiner: bool = False) -> tuple[SteinerTree, SwapSchedule, DistributionResult]:
    """Steiner tree + plan + execution in one call."""
    tree = steiner_tree(net, terminals, exact=exact_steiner)
    schedule = plan_distribution(tree, net)
    result = execute_schedule(schedule, mode=mode,
                              d=d if d is not None else net.local_dim, seed=seed)
    return tree, schedule, result


# ---------------------------------------------------------------------------
# Random instances (testing and demos)
# ---------------------------------------------------------------------------

def random_tree_instance(seed: int, max_nodes: int = 10, max_terminals: int = 4,
                         d: int = 2) -> tuple[ResourceNetwork, SteinerTree]:
    """Seeded random tree network whose leaves (plus maybe one internal node)
    form the terminal set; every tree edge carries one Bell resource.  Every
    tree has 2 or more leaves, so a max below 2 is refused before any draw."""
    max_nodes, d = as_int(max_nodes, "max_nodes", NetworkError), as_dim(d, "d", NetworkError)
    if max_nodes < 2 or as_int(max_terminals, "max_terminals", NetworkError) < 2:
        raise NetworkError("a random tree needs max_nodes >= 2 and max_terminals >= 2")
    rng = np.random.default_rng(as_seed(seed, NetworkError))
    while True:
        n = int(rng.integers(2, max_nodes + 1))
        if n == 2:
            edges = [(0, 1)]
        else:
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        adj = _adjacency(range(n), edges)
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        if len(leaves) > max_terminals:
            seed = int(rng.integers(0, 2**31))
            rng = np.random.default_rng(seed)
            continue
        terminals = set(leaves)
        internal = [v for v in adj if v not in terminals]
        if internal and len(terminals) < max_terminals and rng.random() < 0.5:
            terminals.add(int(rng.choice(internal)))
        net = ResourceNetwork(
            local_dim=d,
            nodes={v: f"n{v}" for v in range(n)},
            resources=[Resource("bell", (u, v)) for u, v in edges],
        )
        net.validate()
        tree = SteinerTree(frozenset(terminals),
                           frozenset((min(u, v), max(u, v)) for u, v in edges))
        tree.check()
        return net, tree
