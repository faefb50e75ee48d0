"""Network loading, Steiner trees, planning, and execution."""

import dataclasses
import json
import re

import numpy as np
import pytest

from walknet import network, protocols
from walknet.network import (
    NetworkError,
    Resource,
    ResourceNetwork,
    ScheduleStep,
    SteinerTree,
    SwapSchedule,
    bundled_network_path,
    distribute,
    execute_schedule,
    load_network,
    plan_distribution,
    random_tree_instance,
    steiner_tree,
)

from dense_reference import bell_net, chain_net, hub_net, plan

TERMINALS = [1, 2, 5, 12, 13, 14]


@pytest.fixture(scope="module")
def net14():
    return load_network(bundled_network_path())


def test_load_bundled_network(net14):
    assert len(net14.nodes) == 14
    assert len(net14.resources) == 14
    assert net14.local_dim == 2


def test_load_rejects_empty_nodes(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"local_dim": 2, "nodes": [], "resources": []}))
    with pytest.raises(NetworkError):
        load_network(p)


def test_load_rejects_dangling_reference(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "local_dim": 2,
        "nodes": [{"id": i, "label": str(i)} for i in range(14)],
        "resources": [{"kind": "bell", "parties": [0, 99]}],
    }))
    with pytest.raises(NetworkError):
        load_network(p)


def test_steiner_tree_rejects_dangling_reference():
    # a hand-built network is validated before the search reads its resources
    net = ResourceNetwork(2, {0: "a", 1: "b"},
                          [Resource("bell", (0, 5)), Resource("bell", (0, 1))])
    for call in (lambda: steiner_tree(net, [0, 1]), lambda: distribute(net, [0, 1])):
        with pytest.raises(NetworkError, match="unknown node 5"):
            call()


def test_bell_party_count_enforced():
    with pytest.raises(NetworkError):
        Resource("bell", (0, 1, 2))
    with pytest.raises(NetworkError):
        Resource("ghz", (0, 1))


def test_steiner_tree_on_bundled_network(net14):
    tree = steiner_tree(net14, TERMINALS)
    assert tree.steiner_nodes == {3, 6, 8, 9, 11}
    assert {3, 8, 11} <= tree.steiner_nodes and {6, 9} <= tree.steiner_nodes
    assert len(tree.edges) == 10


def test_steiner_matches_exact_optimum(net14):
    approx = steiner_tree(net14, TERMINALS)
    exact = steiner_tree(net14, TERMINALS, exact=True)
    assert len(approx.edges) == len(exact.edges)


def test_steiner_single_terminal(net14):
    tree = steiner_tree(net14, [5])
    assert tree.edges == frozenset()
    assert tree.nodes == {5}


def test_steiner_two_adjacent_terminals(net14):
    tree = steiner_tree(net14, [1, 3])
    assert tree.edges == frozenset({(1, 3)})


def test_steiner_disconnected_rejected():
    net = ResourceNetwork(2, {0: "a", 1: "b", 2: "c"},
                          [Resource("bell", (0, 1))])
    with pytest.raises(NetworkError):
        steiner_tree(net, [0, 2])


def test_steiner_deterministic(net14):
    trees = {steiner_tree(net14, TERMINALS).edges for _ in range(3)}
    assert len(trees) == 1


def test_plan_matches_narrated_order(net14):
    sched = plan(net14, TERMINALS)
    assert sched.acting_nodes[:3] == [6, 9, 8]
    assert set(sched.acting_nodes[3:]) == {3, 11}


def test_plan_missing_edge_resource(net14):
    tree = SteinerTree(frozenset({1, 10}), frozenset({(1, 10)}))
    with pytest.raises(NetworkError):
        plan_distribution(tree, net14)


def test_repeater_chain_single_swap():
    sched = plan(chain_net(2, 3), [0, 2])
    assert len(sched.steps) == 1
    assert sched.steps[0].node == 1
    assert sched.steps[0].action == "pair-merge"
    res = execute_schedule(sched, "simulated", d=2, seed=0)
    assert res.fidelity >= 1 - 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_star_merge_with_terminal_root(d):
    sched = plan(hub_net(d, 2), [0, 1, 2])
    assert len(sched.steps) == 1
    res = execute_schedule(sched, "simulated", d=d, seed=3)
    assert res.fidelity >= 1 - 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_bundled_network_end_to_end(net14, d):
    tree, sched, res = distribute(net14, TERMINALS, mode="simulated", d=d, seed=11)
    assert res.fidelity >= 1 - 1e-9
    assert set(res.final_parties) == set(TERMINALS)
    assert res.step_count == 5


def test_symbolic_mode_ledger_conservation(net14):
    tree, sched, res = distribute(net14, TERMINALS, mode="symbolic")
    assert res.mode == "symbolic"
    assert set(res.final_parties) == set(TERMINALS)
    for row in res.ledger:
        assert row["sites_in"] - row["measured"] == len(row["parties"])


def test_empty_schedule_trivial_success(net14):
    sched = plan(net14, [5])
    assert sched.steps == []
    res = execute_schedule(sched, "simulated", d=2, seed=0)
    assert res.fidelity == 1.0
    for res in (res, execute_schedule(sched, "symbolic")):
        assert (res.step_count, res.resources_consumed, res.final_parties) == (0, 0, (5,))


def test_two_terminal_adjacent_noop(net14):
    sched = plan(net14, [1, 3])
    assert sched.steps == []
    res = execute_schedule(sched, "simulated", d=2, seed=0)
    assert res.fidelity >= 1 - 1e-9


def test_internal_terminal_path():
    # terminals at both ends and in the middle of a 4-node path
    sched = plan(chain_net(2, 4), [0, 1, 3])
    res = execute_schedule(sched, "simulated", d=2, seed=5)
    assert res.fidelity >= 1 - 1e-9
    assert set(res.final_parties) == {0, 1, 3}


def test_all_ghz_children_root_uses_local_pair_and_release():
    # three branches of two edges each meeting at node 0: every child resource
    # arriving at the root is a 3-party GHZ, forcing the local-position path
    terminals = [1, 2, 3, 4, 5, 6]
    sched = plan(bell_net(2, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]), terminals)
    actions = [(s.action, s.local_role) for s in sched.steps]
    assert ("star-merge", "position") in actions
    assert actions[-1][0] == "release"
    res = execute_schedule(sched, "simulated", d=2, seed=9)
    assert res.fidelity >= 1 - 1e-9
    assert set(res.final_parties) == set(terminals)


def test_schedule_determinism(net14):
    a = plan_distribution(steiner_tree(net14, TERMINALS), net14).to_json()
    b = plan_distribution(steiner_tree(net14, TERMINALS), net14).to_json()
    assert a == b


def test_execution_seed_determinism(net14):
    _, sched, _ = distribute(net14, TERMINALS, seed=4)
    r1 = execute_schedule(sched, "simulated", d=2, seed=4)
    r2 = execute_schedule(sched, "simulated", d=2, seed=4)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_random_trees_sound():
    for seed in range(40):
        d = 2 if seed % 2 else 3
        net, tree = random_tree_instance(seed=seed, d=d)
        assert len(tree.terminals) <= 4
        sched = plan_distribution(tree, net)
        res = execute_schedule(sched, "simulated", d=d, seed=seed)
        assert res.fidelity >= 1 - 1e-9, (seed, d)


@pytest.mark.parametrize("kwargs, refusal", [
    ({"max_terminals": 1}, "max_nodes >= 2 and max_terminals >= 2"),
    ({"max_nodes": 1}, "max_nodes >= 2 and max_terminals >= 2"),
    ({"max_nodes": 2.5}, "max_nodes 2.5 is not an integer"),
    ({"max_terminals": True}, "max_terminals True is not an integer"),
    ({"seed": 1.5}, "seed 1.5 is not an integer"),
    ({"seed": -1}, "seed -1 is negative"),
    ({"d": 2.5}, "d 2.5 is not an integer"),
    ({"d": "3"}, "d '3' is not an integer"),
    ({"d": 1}, "d must be >= 2"),
], ids=["max_terminals=1", "max_nodes=1", "max_nodes=2.5", "max_terminals=True",
        "seed=1.5", "seed=-1", "d=2.5", "d='3'", "d=1"])
def test_random_tree_instance_refuses_before_any_draw(monkeypatch, kwargs, refusal):
    # every tree of 2 or more nodes has 2 or more leaves: max_terminals=1 looped forever
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(NetworkError, match=re.escape(refusal)):
        random_tree_instance(**{"seed": 0, **kwargs})
    monkeypatch.undo()
    # numpy integers are counts and seeds, and draw as Python ints do
    got = random_tree_instance(np.int64(3), max_nodes=np.int32(10), max_terminals=np.int64(4))
    assert got == random_tree_instance(3, max_nodes=10, max_terminals=4)


@pytest.mark.parametrize("local_dim, refusal", [
    (2.5, "local_dim 2.5 is not an integer"), ("3", "local_dim '3' is not an integer"),
    (None, "local_dim None is not an integer"), (True, "local_dim True is not an integer"),
    (1, "local_dim must be >= 2"),
], ids=["2.5", "'3'", "None", "True", "1"])
def test_network_dimension_refused_before_any_plan(monkeypatch, local_dim, refusal):
    net = ResourceNetwork(local_dim, {0: "n0", 1: "n1"}, [Resource("bell", (0, 1))])
    with pytest.raises(NetworkError, match=re.escape(refusal)):
        net.validate()
    monkeypatch.setattr(network, "plan_distribution", lambda *a: pytest.fail("planned"))
    for mode in ("symbolic", "simulated"):
        with pytest.raises(NetworkError, match=re.escape(refusal)):
            distribute(net, [0, 1], mode=mode)
    monkeypatch.undo()
    # numpy integers are dimensions
    net = ResourceNetwork(np.int64(3), {0: "n0", 1: "n1"}, [Resource("bell", (0, 1))])
    assert distribute(net, [0, 1])[2].fidelity == 1.0


def test_schedule_serialization(net14):
    _, sched, _ = distribute(net14, TERMINALS)
    blob = sched.to_dict()
    assert set(blob) == {"terminals", "initial_resources", "steps"}
    assert all({"node", "action", "output_parties"} <= set(s) for s in blob["steps"])


def test_cap_guard_suggests_symbolic():
    # a 12-ary star needs 13 live sites at d=5 in one merge: over the cap
    n = 13
    sched = plan(hub_net(5, n - 1), list(range(n)))
    with pytest.raises(NetworkError, match="symbolic"):
        execute_schedule(sched, "simulated", d=5, seed=0)
    res = execute_schedule(sched, "symbolic", d=5)
    assert set(res.final_parties) == set(range(n))


def _arms_schedule(arms: int, d: int):
    """Leaf-relay-hub arms: one relay swap per arm, then the hub's star merge."""
    edges = [(0, r) for r in range(1, arms + 1)] + [(r, r + arms) for r in range(1, arms + 1)]
    sched = plan(bell_net(d, edges), range(arms + 1, 2 * arms + 1))
    assert [s.action for s in sched.steps] == ["pair-merge"] * arms + ["star-merge"]
    return sched


def _spy_on_draws(monkeypatch) -> list:
    """Record every step's draw, one entry (its index) per step; returns
    the list the draws go into."""
    calls = []
    draw = network.draw

    def spy(*args):
        calls.extend(drawn := draw(*args))
        return drawn
    monkeypatch.setattr(network, "draw", spy)
    return calls


def test_over_cap_step_refused_before_any_sampling(monkeypatch):
    # at d=5 the 12 relay swaps fit the cap but the hub's star merge (24 live
    # sites) does not; nothing may be sampled before the refusal
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError, match="over the dense cap -- use symbolic"):
        execute_schedule(_arms_schedule(12, 5), "simulated", d=5, seed=0)
    assert calls == []
    res = execute_schedule(_arms_schedule(3, 5), "simulated", d=5, seed=0)
    assert len(calls) == 4 and res.fidelity > 1 - 1e-9
    assert not res.ledger


@pytest.mark.parametrize("d, arms", [(2, 10), (3, 5), (5, 3)])
def test_a_correction_is_built_only_for_a_drawn_outcome(monkeypatch, d, arms):
    # the hub's star merge has d^(arms + 1) outcomes; a run builds one
    # correction label per frame it draws, and a repeated draw builds none
    sched = _arms_schedule(arms, d)
    live = {rid: res.parties for rid, res in sched.initial.items()}
    shapes = []
    for step in sched.steps:
        shapes.append(network._shape(step, live))
        live[step.output_id] = step.output_parties
    calls = []
    build = protocols.Frame.label
    monkeypatch.setattr(protocols.Frame, "label",
                        property(lambda frame: calls.append(frame) or build.fget(frame)))
    protocols.Law.label.cache_clear()
    drawn = set()
    for seed in range(5):
        res = execute_schedule(sched, "simulated", d=d, seed=seed)
        drawn |= {network._step_law(d, *shape).frame(tuple(o["outcome"]))
                  for shape, o in zip(shapes, res.outcomes)}
        assert len(calls) == len(drawn)
    calls.clear()
    execute_schedule(sched, "simulated", d=d, seed=0)
    assert calls == []


def test_unfinished_schedule_refused_before_any_sampling(monkeypatch):
    # one pair merge on a 4-node chain leaves (0, 2) and (2, 3), not a single
    # resource over the terminals; nothing may be sampled before the refusal
    sched = SwapSchedule(
        terminals=(0, 3),
        initial={f"r{i}": Resource("bell", (i, i + 1)) for i in range(3)},
        steps=[ScheduleStep(node=1, action="pair-merge", protocol="ghz-parallel-d",
                            coin_inputs=("r0",), position_input="r1", local_pair=None,
                            local_role=None, output_id="m0", output_parties=(0, 2))])
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError, match="expected a single one over"):
        execute_schedule(sched, "simulated", d=2, seed=0)
    assert calls == []


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("terminals", [(0, 3), (0, 9)])
def test_step_with_a_foreign_output_party_refused_before_any_sampling(
        monkeypatch, mode, terminals):
    # on the chain 0-1-2-3 the second swap outputs (0, 9), although node 9
    # never held a particle and party 3 goes nowhere; site counts still add
    # up, so only the parties give it away, in both modes and before a draw
    pair = dict(action="pair-merge", protocol="ghz-parallel-d", local_pair=None,
                local_role=None)
    sched = SwapSchedule(
        terminals=terminals,
        initial={f"r{i}": Resource("bell", (i, i + 1)) for i in range(3)},
        steps=[ScheduleStep(node=1, coin_inputs=("r0",), position_input="r1",
                            output_id="m0", output_parties=(0, 2), **pair),
               ScheduleStep(node=2, coin_inputs=("m0",), position_input="r2",
                            output_id="m1", output_parties=(0, 9), **pair)])
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError,
                       match="party 3 is neither the acting node nor an output party"):
        execute_schedule(sched, mode, d=2, seed=0)
    assert calls == []


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("field", ["local_pair", "local_role"])
def test_local_pair_and_role_must_agree_before_any_sampling(monkeypatch, mode, field):
    # the planner's star merge on the chain 0-1-2 prepares a local coin pair;
    # a step that names a role without a pair id, or the reverse, is refused
    sched = plan(chain_net(2, 3), [0, 1, 2])
    (step,) = sched.steps
    assert (step.action, step.local_role) == ("star-merge", "coin") and step.local_pair
    bad = dataclasses.replace(sched, steps=[dataclasses.replace(step, **{field: None})])
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError, match="local pair .* but local role"):
        execute_schedule(bad, mode, d=2, seed=0)
    assert calls == []
    assert execute_schedule(sched, mode, d=2, seed=0).step_count == 1


def _lone_terminal_with_leftovers():
    # no steps, two Bell pairs that nothing consumes
    return SwapSchedule(terminals=(0,),
                        initial={"r0": Resource("bell", (0, 1)),
                                 "r1": Resource("bell", (1, 2))})


def _one_party_release():
    # on edges 0-1, 1-2, 1-3, 2-4 the release at 3 leaves (1,), which the
    # star merge at 1 then takes as a coin; site counts and parties add up
    edges = ((0, 1), (1, 2), (1, 3), (2, 4))
    step = dict(protocol="ghz-parallel-d", local_pair=None, local_role=None)
    return SwapSchedule(
        terminals=(0, 4),
        initial={f"r{i}": Resource("bell", e) for i, e in enumerate(edges)},
        steps=[ScheduleStep(node=2, action="pair-merge", coin_inputs=("r1",),
                            position_input="r3", output_id="m0",
                            output_parties=(1, 4), **step),
               ScheduleStep(node=3, action="release", coin_inputs=("r2",),
                            position_input=None, output_id="m1",
                            output_parties=(1,), **step),
               ScheduleStep(node=1, action="star-merge", coin_inputs=("m0", "m1"),
                            position_input="r0", output_id="m2",
                            output_parties=(0, 4), **step)])


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("schedule, match", [
    (_lone_terminal_with_leftovers, "expected a single one over"),
    (_one_party_release, "step at node 3 leaves a one-party resource"),
    (lambda: SwapSchedule(terminals=(0, 3), initial={}), "expected a single one over")])
def test_leftover_or_one_party_resource_refused_before_any_sampling(
        monkeypatch, mode, schedule, match):
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError, match=match):
        execute_schedule(schedule(), mode, d=2, seed=0)
    assert calls == []


def _one_step(resources, outputs, action="pair-merge", position=True, local_role=None):
    """A schedule of one step at node 0 over ``resources`` (coins, then the
    position when ``position``), ending over ``outputs``."""
    ids = [f"r{i}" for i in range(len(resources))]
    coins, pos = (ids[:-1], ids[-1]) if position else (ids, None)
    return SwapSchedule(
        terminals=tuple(sorted(outputs)),
        initial={rid: Resource("bell" if len(p) == 2 else "ghz", p)
                 for rid, p in zip(ids, resources)},
        steps=[ScheduleStep(node=0, action=action, protocol="ghz-parallel-d",
                            coin_inputs=tuple(coins), position_input=pos,
                            local_pair="l0" if local_role else None,
                            local_role=local_role, output_id="m0",
                            output_parties=tuple(outputs))])


NOT_A_STEP = "is not a pair merge, a release or a star merge onto a two-party position"


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("schedule, match", [
    # site counts add up (5 in, 2 read, 3 out), but both inputs put their
    # unread particle at party 5
    (_one_step([(0, 5), (0, 5, 6)], (5, 6, 7)), "do not match its output parties"),
    # a star merge whose position is a GHZ triple has no one far particle
    (_one_step([(0, 1), (0, 2, 3)], (1, 2, 3), "star-merge"), NOT_A_STEP),
    # a pair merge with no position input, and a local pair it cannot use
    (_one_step([(0, 5)], (5, 0), position=False, local_role="coin"), NOT_A_STEP),
    (_one_step([(0, 5, 6)], (5, 6), "teleport", position=False), NOT_A_STEP),
    # party 7 holds no particle: two left for three output parties
    (_one_step([(0, 5), (0, 6)], (5, 6, 7)), "leaves 2 particles for 3 output parties"),
], ids=["shared-output-slot", "ghz-position", "no-position", "unknown-action",
        "extra-output-party"])
def test_malformed_step_refused_in_both_modes_before_any_stage(
        monkeypatch, mode, schedule, match):
    calls = _spy_on_draws(monkeypatch)
    monkeypatch.setattr(protocols, "run_stages",
                        lambda *a, **kw: pytest.fail("a stage ran before the refusal"))
    with pytest.raises(NetworkError, match=match):
        execute_schedule(schedule, mode, d=2, seed=0)
    assert calls == []


@pytest.mark.parametrize("blob", [5, [{"local_dim": 2, "nodes": [], "resources": []}]])
def test_load_rejects_a_top_level_that_is_not_an_object(tmp_path, blob):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(blob))
    with pytest.raises(NetworkError, match="JSON object"):
        load_network(p)


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("d", [1, 0])
def test_dimension_below_two_refused_in_both_modes(monkeypatch, net14, mode, d):
    schedule = plan_distribution(steiner_tree(net14, [1, 2, 5]), net14)
    calls = _spy_on_draws(monkeypatch)
    with pytest.raises(NetworkError, match="d must be >= 2"):
        execute_schedule(schedule, mode, d=d, seed=0)
    assert calls == []


@pytest.mark.parametrize("mode", ["symbolic", "simulated"])
@pytest.mark.parametrize("d, seed, refusal", [
    (3.0, 0, "d 3.0 is not an integer"), (True, 0, "d True is not an integer"),
    ("3", 0, "d '3' is not an integer"), (3, 1.5, "seed 1.5 is not an integer"),
    (3, True, "seed True is not an integer"), (3, -1, "seed -1 is negative"),
], ids=["3.0", "True", "'3'", "seed 1.5", "seed True", "seed -1"])
def test_non_integer_dimension_refused_before_any_draw(monkeypatch, net14, mode, d, seed,
                                                       refusal):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    monkeypatch.setattr(network, "_step_law", lambda *a: pytest.fail("compiled"))
    with pytest.raises(NetworkError, match=re.escape(refusal)):
        distribute(net14, [1, 2, 5], mode=mode, d=d, seed=seed)
    monkeypatch.undo()
    # numpy integers are dimensions
    _, _, got = distribute(net14, [1, 2, 5], mode=mode, d=np.int64(3), seed=4)
    _, _, want = distribute(net14, [1, 2, 5], mode=mode, d=3, seed=4)
    assert got == want


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "1"], ids=repr)
def test_steiner_tree_accepts_only_integer_terminals(net14, bad):
    with pytest.raises(NetworkError, match=re.escape(f"terminal {bad!r} is not an integer")):
        steiner_tree(net14, [5, bad])
    # numpy integers are node ids
    assert steiner_tree(net14, np.array([1, 2, 5])) == steiner_tree(net14, [1, 2, 5])


@pytest.mark.parametrize("bad", [2.7, 1.0, True, "2"], ids=repr)
@pytest.mark.parametrize("field", ["local_dim", "node id", "resource party"])
def test_load_accepts_only_json_integers(tmp_path, field, bad):
    blob = {"local_dim": 2, "nodes": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
            "resources": [{"kind": "bell", "parties": [0, 1]}]}
    if field == "local_dim":
        blob["local_dim"] = bad
    elif field == "node id":
        blob["nodes"][1]["id"] = bad
    else:
        blob["resources"][0]["parties"][1] = bad
    p = tmp_path / "net.json"
    p.write_text(json.dumps(blob))
    with pytest.raises(NetworkError, match=f"{field} {bad!r} is not a JSON integer"):
        load_network(p)


@pytest.mark.parametrize("bad", [[1, 2], None, 7, True], ids=repr)
def test_load_accepts_only_string_labels(tmp_path, bad):
    blob = {"local_dim": 2, "nodes": [{"id": 0, "label": "a"}, {"id": 1, "label": bad}],
            "resources": [{"kind": "bell", "parties": [0, 1]}]}
    p = tmp_path / "net.json"
    p.write_text(json.dumps(blob))
    with pytest.raises(NetworkError, match=re.escape(f"node label {bad!r} is not a JSON string")):
        load_network(p)
    del blob["nodes"][1]["label"]   # a missing label defaults to the id
    p.write_text(json.dumps(blob))
    assert load_network(p).nodes == {0: "a", 1: "1"}


def test_load_rejects_duplicate_node_ids(tmp_path):
    p = tmp_path / "dup.json"
    p.write_text(json.dumps({
        "local_dim": 2,
        "nodes": [{"id": 0, "label": "a"}, {"id": 0, "label": "b"}],
        "resources": [],
    }))
    with pytest.raises(NetworkError):
        load_network(p)
