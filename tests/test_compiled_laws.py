"""Step laws against the dense steps they replace.

The reference here is the dense executor: every step runs its stage on the
amplitudes it inherits from earlier steps, samples one branch, derives that
branch's correction and carries the corrected state on.  For every step
shape that the pinned workloads reach, the network step's closed rule
(``network._step_law``, enumerated in product order) must list the dense
step's kept outcomes in the same order, with equal probabilities, correction
labels and global phases; and a seeded run must leave the generator where
the dense run leaves it, with the same outcomes and corrections.  A merge
draws once, so the dense gasket merge runs its two qudit stages as one, and
every gasket merge on inherited triangles has the law of the merge on
canonical ones (``dense_triangle_law``).  The triangle merge's closed rule
(``protocols.triangle_merge_rule``) must keep every outcome of that law with
its probability and label, and at d = 2 its global phase.  At d = 4, 5 and
6 the network rule is also checked against ``dense_step``, the one-stage
circuit of its shape on canonical inputs, on shapes small enough to run
densely.  ``dense_compile`` is the dense law of a circuit: every kept branch
of its exhaustive run with the correction derived from its residual.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from walknet import fractal, network, protocols
from walknet.network import (
    NetworkError,
    Resource,
    ResourceNetwork,
    bundled_network_path,
    load_network,
    plan_distribution,
    random_tree_instance,
    steiner_tree,
)
from walknet.protocols import (
    ProtocolKind,
    ProtocolSpec,
    Stage,
    derive_ghz_correction,
    run_stages,
    star_merge_stage,
    triangle_merge_stages,
)
from walknet.qudit import Basis, canonical_bell, canonical_ghz, fidelity, identity_op

TOL = 1e-9


class DenseLaw(NamedTuple):
    """A circuit's dense law: every kept outcome in outcome order, their
    normalized probabilities and each outcome's (correction, fidelity)."""

    outcomes: tuple
    probs: np.ndarray
    rows: dict


def dense_compile(stages, outputs) -> DenseLaw:
    """Run ``stages`` exhaustively and derive every leaf's correction from its
    residual over ``outputs``; each must restore the canonical GHZ."""
    probs, rows = [], {}
    for values, prob, post in run_stages(stages, outputs):
        corr = derive_ghz_correction(post)
        fid = fidelity(corr.apply_to(post), canonical_ghz(post.d, post.n))
        assert fid >= 1 - TOL, (values, fid)
        rows[values] = (corr, fid)
        probs.append(prob)
    p = np.array(probs)
    return DenseLaw(tuple(rows), p / p.sum(), rows)


def _leaves(law):
    """(outcome, probability, correction) of every kept outcome, in draw
    order: a ``DenseLaw``'s table, or a network step's closed rule
    (``network._step_law``'s (k, frame) at d) enumerated in product order,
    each ``Frame`` built into its correction."""
    if isinstance(law, DenseLaw):
        return [(values, p, law.rows[values][0]) for values, p in zip(law.outcomes, law.probs)]
    d, (k, frame) = law
    return [(values, d**-k, frame(values).correction())
            for values in product(range(d), repeat=k)]


def _assert_same_law(law, dense):
    """``dense`` lists (outcome, probability, correction) per kept branch."""
    compiled = _leaves(law)
    assert [v for v, _, _ in compiled] == [v for v, _, _ in dense]
    for (_, p, corr), (_, q, ref) in zip(compiled, dense):
        assert abs(p - q) <= 1e-12
        assert corr.label == ref.label
        assert abs(corr.global_phase - ref.global_phase) <= TOL


def _sampled(stages, outputs, rng):
    """The dense sampler: one ``rng.choice`` over the kept branches of a
    one-stage circuit's exhaustive run, with their Born probabilities."""
    branches = list(run_stages(stages, outputs))
    p = np.array([prob for _, prob, _ in branches])
    return branches[rng.choice(len(branches), p=p / p.sum())]


def _sampled_generator(monkeypatch, run):
    """``run()``'s result and the state of the one generator it made."""
    made = []
    real = np.random.default_rng
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
        result = run()
    (rng,) = made
    return result, rng.bit_generator.state


# ---------------------------------------------------------------------------
# network: the dense merge step
# ---------------------------------------------------------------------------

def _dense_stage(step, states, d):
    """The step's stage on its inherited states; particles are (resource, slot)."""
    node_of = {(rid, i): p for rid in step.inputs for i, p in enumerate(states[rid][0])}
    add = [(states[rid][1], tuple((rid, i) for i in range(len(states[rid][0]))))
           for rid in step.inputs]
    local = step.local_pair
    if local is not None:
        add.append((canonical_bell(d, 0, 0), ((local, 0), (local, 1))))
        node_of[(local, 0)] = node_of[(local, 1)] = step.node

    def particle(rid):
        return (rid, states[rid][0].index(step.node))

    if step.action == "pair-merge":
        coin, pos = particle(step.coin_inputs[0]), particle(step.position_input)
        stage = Stage(tuple(add), gates=((coin, pos, identity_op(d)),),
                      targets=((coin, Basis.FOURIER), (pos, Basis.COMPUTATIONAL)))
    elif step.action == "star-merge":
        coins = [particle(rid) for rid in step.coin_inputs]
        if step.local_role == "position":
            pos, far = (local, 0), (local, 1)
        else:
            pos = particle(step.position_input)
            far = (step.position_input, 1 - pos[1])
        if step.local_role == "coin":
            coins.append((local, 0))
        stage = star_merge_stage(d, coins, pos, far, add)
    else:
        stage = Stage(tuple(add), targets=((particle(step.coin_inputs[0]), Basis.FOURIER),))

    read = {lab for lab, _ in stage.targets}
    want, remaining = [], [lab for _, labs in stage.add for lab in labs if lab not in read]
    for party in step.output_parties:
        lab = next(lab for lab in remaining if node_of[lab] == party)
        remaining.remove(lab)
        want.append(lab)
    return stage, tuple(want)


def dense_step(d, shape):
    """A step shape's circuit on canonical inputs, as ``network._step_circuit``
    describes it, run densely as one stage: (stages, outputs)."""
    inputs, coins, pos, far, outputs = network._step_circuit(*shape)
    add = tuple((canonical_ghz(d, len(labels)), labels) for labels in inputs)
    if shape[0] == "star-merge":
        stage = star_merge_stage(d, coins, pos, far, add)
    elif shape[0] == "pair-merge":
        stage = Stage(add, gates=((coins[0], pos, identity_op(d)),),
                      targets=((coins[0], Basis.FOURIER), (pos, Basis.COMPUTATIONAL)))
    else:
        stage = Stage(add, targets=((coins[0], Basis.FOURIER),))
    return [stage], outputs


def dense_law(d, shape):
    """The dense law of ``dense_step``: the dense reference of a step's rule."""
    return dense_compile(*dense_step(d, shape))


def step_shapes(schedule):
    """``network._shape`` of every step of a schedule, in step order."""
    live = {rid: res.parties for rid, res in schedule.initial.items()}
    for step in schedule.steps:
        yield network._shape(step, live)
        for rid in step.inputs:
            del live[rid]
        live[step.output_id] = step.output_parties


def _initial_states(schedule, d):
    return {rid: (res.parties, canonical_bell(d, 0, 0) if res.kind == "bell"
                  else canonical_ghz(d, len(res.parties)))
            for rid, res in schedule.initial.items()}


def _compare_step(step, states, d):
    """The step's exhaustive dense law on its inherited amplitudes against
    the law of its shape; returns the dense stage."""
    stage, outputs = _dense_stage(step, states, d)
    dense = [(values, prob, derive_ghz_correction(post))
             for values, prob, post in run_stages([stage], outputs)]
    parties = {rid: st[0] for rid, st in states.items()}
    _assert_same_law((d, network._step_law(d, *network._shape(step, parties))), dense)
    return stage, outputs


def _dense_execute(schedule, d, seed):
    """Dense run of a schedule, every step compared with the law of its shape:
    (outcomes with corrections, generator state)."""
    rng = np.random.default_rng(seed)
    states = _initial_states(schedule, d)
    trace = []
    for step in schedule.steps:
        stage, outputs = _compare_step(step, states, d)
        values, _, state = _sampled([stage], outputs, rng)
        corr = derive_ghz_correction(state)
        corrected = corr.apply_to(state)
        assert fidelity(corrected, canonical_ghz(d, state.n)) >= 1 - TOL
        for rid in step.inputs:
            del states[rid]
        states[step.output_id] = (step.output_parties, corrected)
        trace.append(([int(v) for v in values], corr.label))
    return trace, rng.bit_generator.state


def _check_schedule(monkeypatch, schedule, d, seed):
    trace, state = _dense_execute(schedule, d, seed)
    result, compiled_state = _sampled_generator(
        monkeypatch, lambda: network.execute_schedule(schedule, d=d, seed=seed))
    assert [(o["outcome"], o["correction"]) for o in result.outcomes] == trace
    assert compiled_state == state
    assert all(o["step_fidelity"] >= 1 - TOL for o in result.outcomes)


def _net(d, edges):
    n = 1 + max(max(e) for e in edges)
    return ResourceNetwork(d, {v: f"n{v}" for v in range(n)},
                           [Resource("bell", e) for e in edges])


def _schedule(net, terminals):
    return plan_distribution(steiner_tree(net, terminals), net)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [11, 20])
def test_network14(monkeypatch, d, seed):
    net = load_network(bundled_network_path())
    _check_schedule(monkeypatch, _schedule(net, [1, 2, 5, 12, 13, 14]), d, seed)


@pytest.mark.parametrize("block", range(4))
def test_random_trees(monkeypatch, block):
    for seed in range(50 * block, 50 * block + 50):
        for d in (2, 3):
            net, tree = random_tree_instance(seed, max_nodes=10, max_terminals=4, d=d)
            _check_schedule(monkeypatch, plan_distribution(tree, net), d, seed)


@pytest.mark.parametrize("d, length", [(2, 5), (2, 25), (3, 12), (2, 200)])
def test_chains(monkeypatch, d, length):
    net = _net(d, [(v, v + 1) for v in range(length - 1)])
    _check_schedule(monkeypatch, _schedule(net, [0, length - 1]), d, length)


@pytest.mark.parametrize("d", range(2, 8))
def test_repeater_pairs(monkeypatch, d):
    # the two-hop link behind every secret-sharing channel
    _check_schedule(monkeypatch, _schedule(_net(d, [(0, 1), (1, 2)]), [0, 2]), d, d)


@pytest.mark.parametrize("d, leaves", [(2, k) for k in range(1, 12)]
                         + [(3, k) for k in range(1, 7)])
def test_hubs(monkeypatch, d, leaves):
    net = _net(d, [(0, v) for v in range(1, leaves + 1)])
    schedule = _schedule(net, list(range(1, leaves + 1)))
    if leaves <= 8:
        _check_schedule(monkeypatch, schedule, d, leaves)
    else:
        # one star merge of 2 * leaves sites: its exhaustive dense law is a
        # dense compile of its own, so the dense sampled run is left out
        (step,) = schedule.steps
        _compare_step(step, _initial_states(schedule, d), d)


@pytest.mark.parametrize("d", [2, 3])
def test_terminal_root_and_local_pair(monkeypatch, d):
    # a terminal root star-merges with a local coin pair ...
    _check_schedule(monkeypatch, _schedule(_net(d, [(0, 1), (0, 2)]), [0, 1, 2]), d, 3)
    # ... and GHZ-only children force a local position pair and a release
    arms = _net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    schedule = _schedule(arms, [1, 2, 3, 4, 5, 6])
    assert ("star-merge", "position") in [(s.action, s.local_role) for s in schedule.steps]
    _check_schedule(monkeypatch, schedule, d, 9)
    # an internal terminal on a path
    _check_schedule(monkeypatch, _schedule(_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3]), d, 5)


# ---------------------------------------------------------------------------
# gasket: the dense triangle merge
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dense_triangle_law(d):
    """The dense law of the gasket's triangle merge on canonical GHZ triples."""
    return dense_compile(triangle_merge_stages(d, [canonical_ghz(d, 3)] * 3, qubit=d == 2),
                         ("a", "b", "c"))


def _one_stage_triangle(d, triples):
    """The triangle merge as one stage: every stage's adds, gates and targets,
    in order, the circuit a merge's one draw samples."""
    stages = triangle_merge_stages(d, triples, qubit=d == 2)
    return [Stage(*(sum((getattr(stage, name) for stage in stages), ())
                    for name in ("add", "gates", "targets")))]


def _dense_gasket(n, d, seed):
    """Dense merge schedule, one draw per merge on its one-stage circuit:
    (corrections, generator state).  Each merge on inherited triangles
    (level >= 2) is also checked exhaustively."""
    rng = np.random.default_rng(seed)
    states = {tri: canonical_ghz(d, 3) for tri in fractal.build_gasket(n).triangles}
    labels = []
    for step in fractal.merge_schedule(n):
        stages = _one_stage_triangle(d, [states.pop(t) for t in step.inputs])
        if step.level >= 2:
            dense = [(values, prob, derive_ghz_correction(post))
                     for values, prob, post in run_stages(stages, ("a", "b", "c"))]
            _assert_same_law(dense_triangle_law(d), dense)
        _, _, post = _sampled(stages, ("a", "b", "c"), rng)
        corr = derive_ghz_correction(post)
        states[step.output] = corr.apply_to(post)
        assert fidelity(states[step.output], canonical_ghz(d, 3)) >= 1 - TOL
        labels.append(corr.label)
    return labels, rng.bit_generator.state


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gasket(monkeypatch, d):
    labels, state = _dense_gasket(2, d, seed=d)
    result, compiled_state = _sampled_generator(
        monkeypatch, lambda: fractal.execute_merge_schedule(2, d=d, seed=d))
    assert result.corrections == labels
    assert compiled_state == state
    assert result.fidelity >= 1 - TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gasket_law_is_the_one_stage_triangle_law(d):
    # at d >= 3 the law runs in two stages but draws once, as the dense
    # sampler draws on the one stage that runs both
    (stage,) = _one_stage_triangle(d, [canonical_ghz(d, 3)] * 3)
    assert len(stage.targets) == 6
    dense = [(values, prob, derive_ghz_correction(post))
             for values, prob, post in run_stages([stage], ("a", "b", "c"))]
    _assert_same_law(dense_triangle_law(d), dense)


def sixth_readout(d, free):
    """The triangle merge's last position readout, fixed by its five free
    ones: u3 = u1 + u2 (mod d), or at d = 2 u6 = 1 + u2 + u4 (mod 2)."""
    return 1 ^ free[3] ^ free[4] if d == 2 else (free[1] + free[4]) % d


@pytest.mark.parametrize("d", range(2, 8))
def test_triangle_rule_is_the_dense_law(d):
    # every d^5 outcome of the free readouts, in product order, completed by
    # its sixth, at probability d^-5 and with the dense law's label
    k, frame = protocols.triangle_merge_rule(d, d == 2)
    law = dense_triangle_law(d)
    free = list(product(range(d), repeat=k))
    assert law.outcomes == tuple(v + (sixth_readout(d, v),) for v in free)
    assert np.abs(law.probs - d**-k).max() <= 1e-12
    assert ([frame(v).label for v in free]
            == [law.rows[v][0].label for v in law.outcomes])


def test_qubit_triangle_rule_matches_the_derived_corrections():
    stages, outputs, closed, _ = protocols._circuit(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_2D))
    branches = list(run_stages(stages, outputs))
    assert len(branches) == 32
    for values, _, post in branches:
        corr, ref = closed(values), derive_ghz_correction(post)
        assert corr.label == ref.label
        assert abs(corr.global_phase - ref.global_phase) <= 1e-12
    with pytest.raises(ValueError, match="d=2 only"):
        protocols.triangle_merge_rule(3, True)


# ---------------------------------------------------------------------------
# named outputs
# ---------------------------------------------------------------------------

def test_unmatched_outputs_are_refused_before_any_dense_work(monkeypatch):
    # both inputs put their node-free particle in output slot 0: a pair merge
    # of this shape leaves two particles for one output party
    def run_stages(*args, **kwargs):
        raise AssertionError("the circuit ran before its outputs were checked")

    monkeypatch.setattr(protocols, "run_stages", run_stages)
    with pytest.raises(NetworkError, match="do not match its output parties"):
        network._step_law.__wrapped__(2, "pair-merge", None, -1, 1, ((-1, 0), (-1, 0)))


@pytest.mark.parametrize("d", [2, 3])
def test_compiled_corrections_follow_the_named_output_order(d):
    stages = triangle_merge_stages(d, [canonical_ghz(d, 3)] * 3, qubit=d == 2)
    outputs = ("c", "a", "b")
    dense = [(values, prob, derive_ghz_correction(post))
             for values, prob, post in run_stages(stages, outputs)]
    _assert_same_law(dense_compile(stages, outputs), dense)
    # the order is not a relabeling the corrections ignore
    natural = _leaves(dense_triangle_law(d))
    assert [c.label for _, _, c in dense] != [c.label for _, _, c in natural]


# ---------------------------------------------------------------------------
# network: the closed rule against the dense step at larger d
# ---------------------------------------------------------------------------

def _small_shapes(d):
    """Every step shape of a few small schedules whose dense step stays
    within 6^8 amplitudes at d."""
    nets = [(_net(d, [(0, 1), (0, 2)]), [0, 1, 2]),
            (_net(d, [(0, 1), (1, 2), (0, 3), (3, 4)]), [0, 1, 2, 3, 4]),
            (_net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), [1, 2, 3, 4, 5, 6]),
            (_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3]),
            (_net(d, [(0, 1), (0, 2), (0, 3)]), [1, 2, 3]),
            (_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 3])]
    schedules = [_schedule(net, terminals) for net, terminals in nets] + [
        plan_distribution(*reversed(random_tree_instance(seed, max_nodes=6, d=d)))
        for seed in range(10)]
    shapes = {}
    for schedule in schedules:
        for shape in step_shapes(schedule):
            if d ** sum(map(len, network._step_circuit(*shape)[0])) <= 6**8:
                shapes[shape] = None
    return list(shapes)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_rules_match_the_dense_step_at_larger_d(d):
    shapes = _small_shapes(d)
    assert {(s[0], s[1]) for s in shapes} == {
        ("pair-merge", None), ("release", None),
        ("star-merge", None), ("star-merge", "coin"), ("star-merge", "position")}
    for shape in shapes:
        _assert_same_law((d, network._step_law(d, *shape)), _leaves(dense_law(d, shape)))
