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
6 the network rule is also checked against ``dense_law``, the law of the
one-stage circuit of its shape on canonical inputs, on shapes small enough
to run densely.  The references live in ``dense_reference``, each law
computed once per shape and returned read-only.
"""

from itertools import product

import numpy as np
import pytest

from walknet import fractal, network, protocols
from walknet.network import (
    NetworkError,
    bundled_network_path,
    load_network,
    plan_distribution,
    random_tree_instance,
)
from walknet.protocols import (
    ProtocolKind,
    ProtocolSpec,
    derive_ghz_correction,
    run_stages,
    triangle_merge_stages,
)
from walknet.qudit import canonical_ghz

from dense_reference import (
    TOL,
    DenseLaw,
    bell_net,
    canonical_triangle_branches,
    chain_net,
    correction_leaves,
    dense_compile,
    dense_execute,
    dense_gasket,
    dense_law,
    dense_pair_law,
    dense_triangle_law,
    hub_net,
    one_stage_triangle,
    plan,
    sampled_generator,
    sixth_readout,
    step_shapes,
)


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


# ---------------------------------------------------------------------------
# network: the dense merge step
# ---------------------------------------------------------------------------

def _check_schedule(monkeypatch, schedule, d, seed):
    trace, state, laws = dense_execute(schedule, d, seed)
    for shape, dense in laws:
        _assert_same_law((d, network._step_law(d, *shape)), dense)
    result, compiled_state = sampled_generator(
        monkeypatch, lambda: network.execute_schedule(schedule, d=d, seed=seed))
    assert [(o["outcome"], o["correction"]) for o in result.outcomes] == trace
    assert compiled_state == state
    assert all(o["step_fidelity"] >= 1 - TOL for o in result.outcomes)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [11, 20])
def test_network14(monkeypatch, d, seed):
    net = load_network(bundled_network_path())
    _check_schedule(monkeypatch, plan(net, [1, 2, 5, 12, 13, 14]), d, seed)


@pytest.mark.parametrize("block", range(4))
def test_random_trees(monkeypatch, block):
    for seed in range(50 * block, 50 * block + 50):
        for d in (2, 3):
            net, tree = random_tree_instance(seed, max_nodes=10, max_terminals=4, d=d)
            _check_schedule(monkeypatch, plan_distribution(tree, net), d, seed)


@pytest.mark.parametrize("d, length", [(2, 5), (2, 25), (3, 12), (2, 200)])
def test_chains(monkeypatch, d, length):
    net = chain_net(d, length)
    _check_schedule(monkeypatch, plan(net, [0, length - 1]), d, length)


@pytest.mark.parametrize("d", range(2, 8))
def test_repeater_pairs(monkeypatch, d):
    # the two-hop link behind every secret-sharing channel
    _check_schedule(monkeypatch, plan(bell_net(d, [(0, 1), (1, 2)]), [0, 2]), d, d)


@pytest.mark.parametrize("d, leaves", [(2, k) for k in range(1, 12)]
                         + [(3, k) for k in range(1, 7)])
def test_hubs(monkeypatch, d, leaves):
    schedule = plan(hub_net(d, leaves), list(range(1, leaves + 1)))
    if leaves <= 8:
        _check_schedule(monkeypatch, schedule, d, leaves)
    else:
        # one star merge of 2 * leaves sites on canonical Bell pairs: its
        # exhaustive dense law is the shape's, so the dense sampled run is left out
        (shape,) = step_shapes(schedule)
        _assert_same_law((d, network._step_law(d, *shape)), _leaves(dense_law(d, shape)))


@pytest.mark.parametrize("d", [2, 3])
def test_terminal_root_and_local_pair(monkeypatch, d):
    # a terminal root star-merges with a local coin pair ...
    _check_schedule(monkeypatch, plan(bell_net(d, [(0, 1), (0, 2)]), [0, 1, 2]), d, 3)
    # ... and GHZ-only children force a local position pair and a release
    arms = bell_net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    schedule = plan(arms, [1, 2, 3, 4, 5, 6])
    assert ("star-merge", "position") in [(s.action, s.local_role) for s in schedule.steps]
    _check_schedule(monkeypatch, schedule, d, 9)
    # an internal terminal on a path
    _check_schedule(monkeypatch, plan(bell_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3]), d, 5)


# ---------------------------------------------------------------------------
# gasket: the dense triangle merge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gasket(monkeypatch, d):
    labels, state, laws = dense_gasket(2, d, seed=d)
    for dense in laws:
        _assert_same_law(dense_triangle_law(d), dense)
    result, compiled_state = sampled_generator(
        monkeypatch, lambda: fractal.execute_merge_schedule(2, d=d, seed=d))
    assert result.corrections == labels
    assert compiled_state == state
    assert result.fidelity >= 1 - TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gasket_law_is_the_one_stage_triangle_law(d):
    # at d >= 3 the law runs in two stages but draws once, as the dense
    # sampler draws on the one stage that runs both
    (stage,) = one_stage_triangle(d, [canonical_ghz(d, 3)] * 3)
    assert len(stage.targets) == 6
    _assert_same_law(dense_triangle_law(d), correction_leaves(canonical_triangle_branches(d)))


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
    stages, outputs, closed, _ = protocols.circuit(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_2D))
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
    dense = correction_leaves(run_stages(stages, outputs))
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
    nets = [(bell_net(d, [(0, 1), (0, 2)]), [0, 1, 2]),
            (bell_net(d, [(0, 1), (1, 2), (0, 3), (3, 4)]), [0, 1, 2, 3, 4]),
            (bell_net(d, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), [1, 2, 3, 4, 5, 6]),
            (bell_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 1, 3]),
            (bell_net(d, [(0, 1), (0, 2), (0, 3)]), [1, 2, 3]),
            (bell_net(d, [(0, 1), (1, 2), (2, 3)]), [0, 3])]
    schedules = [plan(net, terminals) for net, terminals in nets] + [
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


def test_a_dense_law_is_computed_once_and_read_only(monkeypatch):
    (shape,) = step_shapes(plan(hub_net(3, 2), [0, 1, 2]))
    law, triangle, pair = dense_law(3, shape), dense_triangle_law(2), dense_pair_law(3, True)
    assert dense_law(3, shape) is law and dense_triangle_law(2) is triangle
    assert dense_pair_law(3, True) is pair
    for cached in (law, triangle):
        with pytest.raises(ValueError, match="read-only"):
            cached.probs[0] = 0
        with pytest.raises(TypeError):
            cached.rows[cached.outcomes[0]] = None
    assert not any(array.flags.writeable for array in pair)
    # a law is filled through the module's own run_stages binding
    monkeypatch.setattr(protocols, "run_stages", lambda *a: pytest.fail("ran the patched binding"))
    fresh = dense_law.__wrapped__(3, shape)
    assert fresh.outcomes == law.outcomes and np.array_equal(fresh.probs, law.probs)
