"""The benchmark's workloads: seeded task lists with a correctness check each.

A task is one user-level walknet call plus the check of its output.  A
workload builds its task list from its seed; the runner makes PASSES passes
over it, running heavy tasks in fewer of them, so each repeat of a task
does the same work.

catalog  every ProtocolKind run exhaustively over a parameter grid, the six
         reference tables, correction lookups and readout-noise estimates.
         State sizes run from 4 amplitudes to about 2M; network, fractal and
         mqss are never called.
network  sampled distribution (one Born-sampled branch per merge): random
         trees, the bundled 14-node network, a relay-chain length sweep, hub
         stars up to and past the dense cap, a GHZ-hyperedge network and
         Sierpinski-gasket merge schedules.  Tree size drives the planner,
         live sites per merge drive the dense kernel.
mqss     closed-loop secret-sharing sessions: many small clean sessions and a
         fixed share of intercept-resend attacks with hundreds of detecting
         pairs, so time goes to per-call overhead and the channel check.

The over-cap hubs and the GHZ-hyperedge network are refused by the library
today with a NetworkError.  Those tasks may end with one of the refusals in
REFUSALS ("rejected"); if they return, their output is checked like any
other.  Any other exception, a NetworkError that reports a wrong result
included, fails the task.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from walknet import fractal, mqss, network, protocols, readout, tables
from walknet.network import NetworkError, Resource, ResourceNetwork
from walknet.protocols import ProtocolKind as K
from walknet.protocols import ProtocolSpec
from walknet.qudit import SIZE_CAP, canonical_ghz, fidelity

TOL = 1e-9

# (passes, heavy_every) of a run, the same on every commit: each task's
# latency is its fastest repeat.  Light tasks run in every pass, heavy ones
# only in passes 0, heavy_every, 2 * heavy_every, ...  On a shared machine a
# millisecond task's time swings by a third from one moment to the next, so
# the fastest of four repeats still moved task_ms_p50 by a quarter between
# runs; light tasks are cheap to sample more often.  Heavy tasks take most of
# a pass, and each of them already spans many such moments.  Set so that a
# run takes 25-35 s on a 2-core x86 VM; --seconds only caps a run.
PASSES = {"catalog": (7, 3), "network": (13, 6), "mqss": (7, 1)}
HEAVY_AMPS = 5**6   # protocols and hub merges on states this large are heavy

# The messages with which walknet refuses a distribution it does not support
# yet: a merge step over the dense cap, and a tree edge that is covered by a
# GHZ resource but no Bell pair.
REFUSALS = ("over the dense cap", "no elementary Bell resource on tree edge")


class CheckFailed(Exception):
    """A task returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Task:
    name: str                              # the walknet call, e.g. "run_protocol"
    params: str                            # its inputs, for failure records and the digest
    call: Callable[[], Any]
    check: Callable[[Any], Any]            # raises CheckFailed; returns digest data
    may_reject: bool = False               # a NetworkError in REFUSALS is an accepted answer
    heavy: bool = False                    # runs only in every heavy_every-th pass

    def refused(self, exc: Exception) -> bool:
        return (self.may_reject and isinstance(exc, NetworkError)
                and any(r in str(exc) for r in REFUSALS))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def interleave(tasks: list[Task]) -> list[Task]:
    """A fixed shuffle, the same for every seed: each kind of task is spread
    over the whole pass, so a slow stretch of the machine does not land on one
    kind alone."""
    return [tasks[i] for i in np.random.default_rng(0).permutation(len(tasks))]


def _fits(d: int, sites: int) -> bool:
    return d**sites <= SIZE_CAP


def protocol_grid(small: bool) -> list[ProtocolSpec]:
    """Every ProtocolKind over the grid the paper's claims cover."""
    ds = (2, 3) if small else (2, 3, 5)
    sizes = range(2, 4) if small else range(2, 6)
    specs = [ProtocolSpec(K.BELL_SWAP_2D), ProtocolSpec(K.GHZ_SWAP_2D),
             ProtocolSpec(K.TRIANGLE_MERGE_2D)]
    for m, n in itertools.product(sizes, sizes):
        for retain in (False, True):
            specs += [ProtocolSpec(K.MERGE_METHOD_1, m=m, n=n, k=k, retain_coins=retain)
                      for k in range(1, m)]
            specs += [ProtocolSpec(K.MERGE_METHOD_2, m=m, n=n, k=k, retain_coins=retain)
                      for k in range(1, min(m, n))]
        specs += [ProtocolSpec(K.MERGE_COMBINED, m=m, n=n, k=k, l=l)
                  for l in range(2, n) for k in range(l + 1, m) if k + l <= m + n - 2]
    for d in ds:
        specs += [ProtocolSpec(K.BELL_SWAP_D, d=d, bell_labels=labels)
                  for labels in itertools.product(range(d), repeat=4)]
        specs += [ProtocolSpec(K.GHZ_SWAP_D, d=d), ProtocolSpec(K.TRIANGLE_MERGE_D, d=d)]
        for m, n in itertools.product(sizes, sizes):
            if not _fits(d, m + n):
                continue
            specs.append(ProtocolSpec(K.GHZ_MULTI_COIN_D, d=d, m=m, n=n))
            specs += [ProtocolSpec(K.GHZ_PARALLEL_D, d=d, m=m, n=n, k=k, retain_coins=retain)
                      for k in range(1, min(m, n)) for retain in (False, True)]
        max_bells = 3 if small else 8
        specs += [ProtocolSpec(K.GHZ_FROM_BELLS_D, d=d, bells=b)
                  for b in range(1, max_bells + 1) if _fits(d, 2 * (b + 1))]
    return specs


def input_amps(spec: ProtocolSpec) -> int:
    """Amplitudes of the protocol's joined input register, from its spec: a
    fixed measure of its size."""
    if spec.kind in (K.MERGE_METHOD_1, K.MERGE_METHOD_2, K.MERGE_COMBINED,
                     K.GHZ_MULTI_COIN_D, K.GHZ_PARALLEL_D):
        sites = spec.m + spec.n
    elif spec.kind is K.GHZ_FROM_BELLS_D:
        sites = 2 * (spec.bells + 1)
    elif spec.kind in (K.BELL_SWAP_2D, K.BELL_SWAP_D):
        sites = 4
    else:   # GHZ swap: two GHZ triples; triangle merge: three Bell pairs
        sites = 6
    return spec.d ** sites


def check_protocol(result) -> list:
    require(bool(result.branches), "no branches")
    require(abs(result.total_probability - 1) <= TOL,
            f"branch probabilities sum to {result.total_probability}")
    require(result.all_recovered(TOL), f"min fidelity {result.min_fidelity}")
    if result.spec.kind is K.BELL_SWAP_D:
        require(all(b.label_fidelity >= 1 - TOL for b in result.branches),
                "a branch misses its labelled Bell state")
    return [[list(b.outcome), b.correction.label] for b in result.branches]


def check_table(report) -> list:
    require(bool(report.rows), f"table {report.table_id} has no rows")
    bad = [r.outcome for r in report.rows if not r.ok]
    require(not bad, f"table {report.table_id} rows failed: {bad}")
    return [[list(r.outcome), r.listed_correction] for r in report.rows]


def _lookup_task(spec: ProtocolSpec, branch) -> Task:
    target = canonical_ghz(spec.d, branch.post.n)

    def check(corr):
        fid = fidelity(corr.apply_to(branch.post), target)
        require(fid >= 1 - TOL, f"looked-up correction reaches fidelity {fid}")
        return corr.label

    return Task("correction_for", f"{spec} outcome={branch.outcome}",
                lambda: protocols.correction_for(spec.kind, spec.d, branch.outcome, spec),
                check)


def _noise_task(spec: ProtocolSpec, state, mats, p: float, seed: int) -> Task:
    n = state.n
    target = canonical_ghz(2, n)
    # ideal readout correction leaves (1-p) + p/2^n; 2e5 shots keep the
    # sampling error near 1e-3
    expected = (1 - p) + p / 2**n

    def check(fid):
        require(abs(fid - expected) <= 0.02, f"fidelity {fid}, expected {expected}")
        return round(fid, 2)

    return Task("protocol_fidelity_under_noise", f"{spec} p={p} seed={seed}",
                lambda: readout.protocol_fidelity_under_noise(
                    state, mats[:n], p, shots=200_000, seed=seed, target=target),
                check)


LOOKUP_SPECS = (
    ProtocolSpec(K.BELL_SWAP_2D), ProtocolSpec(K.GHZ_SWAP_2D),
    ProtocolSpec(K.MERGE_METHOD_1, m=3, n=3, k=2),
    ProtocolSpec(K.MERGE_METHOD_2, m=3, n=3, k=1),
    ProtocolSpec(K.MERGE_COMBINED, m=5, n=4, k=3, l=2),
    ProtocolSpec(K.TRIANGLE_MERGE_2D),
    ProtocolSpec(K.BELL_SWAP_D, d=3, bell_labels=(1, 2, 0, 1)),
    ProtocolSpec(K.GHZ_SWAP_D, d=3),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=3, n=3, k=2),
    ProtocolSpec(K.GHZ_MULTI_COIN_D, d=3, m=3, n=3),
    ProtocolSpec(K.GHZ_FROM_BELLS_D, d=3, bells=2),
    ProtocolSpec(K.TRIANGLE_MERGE_D, d=3),
)
LOOKUPS_PER_SPEC = 10
NOISE_SPECS = (
    ProtocolSpec(K.BELL_SWAP_2D), ProtocolSpec(K.GHZ_SWAP_2D),
    ProtocolSpec(K.GHZ_FROM_BELLS_D, d=2, bells=2), ProtocolSpec(K.TRIANGLE_MERGE_2D),
)


def build_catalog(rng: np.random.Generator, small: bool) -> list[Task]:
    tasks = [Task("run_protocol", str(spec), lambda spec=spec: protocols.run_protocol(spec),
                  check_protocol, heavy=input_amps(spec) >= HEAVY_AMPS)
             for spec in protocol_grid(small)]
    tasks += [Task("verify_table", str(tid), lambda tid=tid: tables.verify_table(tid),
                   check_table) for tid in tables.TABLE_IDS]

    # reference branches for the lookups and the noise estimates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the symmetric layout warns for f0 != f1
        mats = [r.to_transfer_matrix() for r in
                readout.load_device_records(readout.bundled_device_path())]
    reference = {spec: protocols.run_protocol(spec).branches
                 for spec in LOOKUP_SPECS + NOISE_SPECS}
    for spec in LOOKUP_SPECS:
        branches = reference[spec]
        tasks += [_lookup_task(spec, branches[i]) for i in
                  rng.integers(len(branches), size=2 if small else LOOKUPS_PER_SPEC)]
    for spec in NOISE_SPECS[:2] if small else NOISE_SPECS:
        branch = reference[spec][rng.integers(len(reference[spec]))]
        state = branch.correction.apply_to(branch.post)
        p = float(rng.choice([0.0, 0.02, 0.05, 0.1]))
        tasks.append(_noise_task(spec, state, mats, p, int(rng.integers(2**31))))
    return interleave(tasks)


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def check_distribution(schedule, result, terminals) -> list:
    require(set(result.final_parties) == set(terminals),
            f"final parties {result.final_parties}, wanted {sorted(terminals)}")
    if result.mode == "simulated":
        require(result.fidelity >= 1 - TOL, f"final fidelity {result.fidelity}")
        low = [o["step_fidelity"] for o in result.outcomes if o["step_fidelity"] < 1 - TOL]
        require(not low, f"merge step fidelities {low}")
    return [schedule.to_dict(), [[o["outcome"], o["correction"]] for o in result.outcomes]]


def _distribute_task(label: str, net: ResourceNetwork, terminals, mode: str, seed: int,
                     exact: bool = False, may_reject: bool = False, heavy: bool = False) -> Task:
    def call():
        return network.distribute(net, terminals, mode=mode, seed=seed, exact_steiner=exact)

    return Task("distribute", f"{label} d={net.local_dim} {mode} seed={seed}", call,
                lambda out: check_distribution(out[1], out[2], terminals), may_reject, heavy)


def _tree_task(net: ResourceNetwork, tree, seed: int) -> Task:
    def call():
        schedule = network.plan_distribution(tree, net)
        return schedule, network.execute_schedule(schedule, mode="simulated",
                                                  d=net.local_dim, seed=seed)

    return Task("execute_schedule", f"tree n={len(net.nodes)} d={net.local_dim} "
                f"terminals={sorted(tree.terminals)} seed={seed}", call,
                lambda out: check_distribution(*out, tree.terminals))


def _gasket_task(depth: int, d: int, seed: int) -> Task:
    # depth 5 and 6 make 121 and 364 merges
    def check(res):
        require(res.merge_count == (3**depth - 1) // 2, f"{res.merge_count} merges")
        require(res.fidelity >= 1 - TOL, f"final fidelity {res.fidelity}")
        return [res.merge_count, res.final_corners]

    return Task("execute_merge_schedule", f"depth={depth} d={d} seed={seed}",
                lambda: fractal.execute_merge_schedule(depth, d=d, seed=seed), check,
                heavy=depth >= 5)


def _analytics_task(t: int) -> Task:
    def check(rec):
        require(0 < rec.clustering < 1, f"clustering {rec.clustering}")
        if rec.brute is not None:
            require(rec.brute["vertices"] == rec.n_vertices
                    and rec.brute["edges"] == rec.n_edges, "counts differ from the graph")
            require(abs(rec.brute["clustering"] - rec.clustering) <= 1e-12,
                    "clustering differs from the graph")
        if t == 30:
            require(abs(rec.clustering - fractal.CLUSTERING_LIMIT) < 1e-3,
                    f"clustering {rec.clustering} far from its limit")
        return [rec.n_vertices, rec.n_edges, round(rec.clustering, 12)]

    return Task("analytics", f"t={t}", lambda: fractal.analytics(t), check)


def _line(d: int, n: int) -> ResourceNetwork:
    return ResourceNetwork(d, {v: f"n{v}" for v in range(n)},
                           [Resource("bell", (v, v + 1)) for v in range(n - 1)])


def _hub(d: int, leaves: int) -> ResourceNetwork:
    return ResourceNetwork(d, {v: f"n{v}" for v in range(leaves + 1)},
                           [Resource("bell", (0, v)) for v in range(1, leaves + 1)])


def build_network(rng: np.random.Generator, small: bool) -> list[Task]:
    def seed() -> int:
        return int(rng.integers(2**31))

    tasks = []
    for i in range(8 if small else 200):
        net, tree = network.random_tree_instance(seed(), max_nodes=10, max_terminals=4,
                                                 d=2 + i % 2)
        tasks.append(_tree_task(net, tree, seed()))

    net14 = network.load_network(network.bundled_network_path())
    for d in (2, 3):
        terminals = sorted(int(v) for v in rng.choice(sorted(net14.nodes), 6, replace=False))
        for exact in (False, True):
            tasks.append(_distribute_task(f"network14 terminals={terminals} exact={exact}",
                                          dataclasses.replace(net14, local_dim=d),
                                          terminals, "simulated", seed(), exact))

    for length in (5,) if small else (25, 50, 100, 200):
        for mode in ("symbolic", "simulated"):
            tasks.append(_distribute_task(f"chain n={length}", _line(2, length),
                                          [0, length - 1], mode, seed(), heavy=length >= 100))

    # a dense star merge over k Bell pairs holds 2k live sites
    for d, sweep in ((2, (3, 12) if small else range(3, 13)),
                     (3, () if small else range(3, 8))):
        for leaves in sweep:
            tasks.append(_distribute_task(f"hub leaves={leaves}", _hub(d, leaves),
                                          list(range(1, leaves + 1)), "simulated", seed(),
                                          may_reject=not _fits(d, 2 * leaves),
                                          heavy=d ** (2 * leaves) >= HEAVY_AMPS))

    hyper = ResourceNetwork(2, {v: f"n{v}" for v in range(4)},
                            [Resource("ghz", (0, 1, 2)), Resource("bell", (2, 3))])
    tasks.append(_distribute_task("ghz(0,1,2)+bell(2,3)", hyper, [0, 3], "simulated",
                                  seed(), may_reject=True))

    for depth in (1, 2) if small else range(1, 7):
        for d in (2, 3):
            tasks.append(_gasket_task(depth, d, seed()))
    tasks += [_analytics_task(t) for t in ((3,) if small else (4, 6, 12, 30))]
    return interleave(tasks)


# ---------------------------------------------------------------------------
# mqss
# ---------------------------------------------------------------------------

def _clean_session(cfg) -> Task:
    def check(t):
        require(not t.aborted, "clean session aborted")
        rates = [c["error_rate"] for c in t.channel_checks]
        require(all(r == 0.0 for r in rates), f"clean channels saw error rates {rates}")
        m = cfg.participants
        require(all(v == (t.dealer_result + q) % cfg.d
                    for v, q in zip(t.participant_results, t.coin_results)),
                "participant values do not match the GHZ pattern")
        total = m * t.public_value + sum(t.coin_results) + m * t.dealer_result
        require(total == cfg.secret and t.reconstructed == cfg.secret,
                f"secret {cfg.secret} reconstructed as {total} / {t.reconstructed}")
        return t.to_dict()

    return Task("run_mqss", str(cfg), lambda: mqss.run_mqss(cfg), check)


class AttackTally:
    """Detecting-pair errors pooled over a pass's attacked sessions."""

    def __init__(self):
        self.errors = 0
        self.pairs = 0


def _attack_session(cfg, tally: AttackTally) -> Task:
    def check(t):
        require(t.aborted, "intercept-resend attack was not detected")
        last = t.channel_checks[-1]
        require(last["channel"] == cfg.eavesdrop_channel and last["abort"],
                "abort came from the wrong channel")
        tally.errors += round(last["error_rate"] * last["pairs"])
        tally.pairs += last["pairs"]
        return t.to_dict()

    return Task("run_mqss", str(cfg), lambda: mqss.run_mqss(cfg), check)


def _attack_rate_task(d: int, tally: AttackTally) -> Task:
    """The pooled sampled attack error rate agrees with the exact one (3 sigma)."""
    def check(p):
        pooled, pairs = tally.errors / tally.pairs, tally.pairs
        tally.errors = tally.pairs = 0
        sigma = math.sqrt(p * (1 - p) / pairs)
        require(abs(pooled - p) <= 3 * sigma,
                f"pooled attack error rate {pooled} over {pairs} pairs, exact {p}")
        return round(p, 12)

    return Task("intercept_resend_error_rate", f"d={d} pooled",
                lambda: mqss.intercept_resend_error_rate(d), check)


def build_mqss(rng: np.random.Generator, small: bool) -> list[Task]:
    """Clean sessions over every (d, participants, detecting pairs) combination,
    twice, then one intercept-resend attack per three clean sessions."""
    combos = list(itertools.product(range(2, 8), (2, 3, 4), (2, 3, 4)))
    clean = combos[::13] if small else combos * 2
    tasks = []
    for d, m, pairs in clean:
        cfg = mqss.MqssConfig(d=d, participants=m, secret=int(rng.integers(-1000, 1000)),
                              detect_pairs=pairs, seed=int(rng.integers(2**31)))
        tasks.append(_clean_session(cfg))
    tally = AttackTally()
    for i in range(2 if small else len(clean) // 3):
        cfg = mqss.MqssConfig(d=2, participants=2 + i % 3, secret=int(rng.integers(-1000, 1000)),
                              detect_pairs=200, eavesdrop_channel=1,
                              seed=int(rng.integers(2**31)))
        tasks.append(_attack_session(cfg, tally))
    return interleave(tasks) + [_attack_rate_task(2, tally)]   # after every attack


BY_NAME = {"catalog": build_catalog, "network": build_network, "mqss": build_mqss}


def build(workload: str, seed: int, small: bool = False) -> list[Task]:
    return BY_NAME[workload](np.random.default_rng(seed), small)
