"""Gasket construction, merge schedules, and network analytics."""

import hashlib
import json

import numpy as np
import pytest

from walknet.fractal import (
    CLUSTERING_LIMIT,
    analytics,
    average_degree,
    brute_force_stats,
    build_gasket,
    build_quantum_network,
    clustering_formula,
    cumulative_degree_fraction,
    cumulative_degree_limit,
    degree_of_generation,
    edge_count,
    execute_merge_schedule,
    merge_schedule,
    vertex_count,
)
from walknet.protocols import Law, triangle_merge_rule


def test_gasket_base_case():
    g = build_gasket(0)
    assert len(g.triangles) == 1
    assert len(g.vertices) == 3
    assert g.side_length_units == 1


def test_gasket_first_iteration_counts():
    g = build_gasket(1)
    assert len(g.triangles) == 3
    assert len(g.vertices) == 6  # (3^2 + 3) / 2


def test_gasket_triangle_count_powers():
    for n in range(5):
        assert len(build_gasket(n).triangles) == 3**n


def test_gasket_vertices_deduplicated():
    g = build_gasket(2)
    assert len(g.vertices) == len(set(g.vertices)) == 15


def test_gasket_range_check():
    with pytest.raises(ValueError):
        build_gasket(-1)
    with pytest.raises(ValueError):
        build_gasket(11)


@pytest.mark.parametrize("n", range(1, 11))
def test_merge_schedule_length(n):
    assert len(merge_schedule(n)) == (3**n - 1) // 2


def test_merge_schedule_rejects_zero():
    with pytest.raises(ValueError):
        merge_schedule(0)


def test_merge_steps_reference_existing_triangles():
    gasket = build_gasket(2)
    produced = set(gasket.triangles)
    for step in merge_schedule(2):
        for tri in step.inputs:
            assert tri in produced
        produced.add(step.output)
    assert build_gasket(2).vertices[0] in ((0, 0),)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_execute_merge_schedule_reaches_apex_ghz(n, d):
    res = execute_merge_schedule(n, d=d, seed=13)
    assert res.fidelity >= 1 - 1e-9
    assert res.merge_count == (3**n - 1) // 2
    side = 2**n
    assert res.final_corners == ((0, 0), (side, 0), (0, side))


@pytest.mark.parametrize("n", range(1, 7))
def test_executed_merges_follow_the_schedule(n):
    res = execute_merge_schedule(n, d=2, seed=n)
    steps = merge_schedule(n)
    assert res.merge_count == len(steps) == len(res.corrections)
    assert res.final_corners == steps[-1].output


@pytest.mark.parametrize("n", [0, 11])
def test_execute_merge_schedule_range_check(n):
    with pytest.raises(ValueError):
        execute_merge_schedule(n)


@pytest.mark.parametrize("n, d, seed, refusal", [
    (2, 3.0, 0, "d 3.0 is not an integer"), (True, 2, 0, "n True is not an integer"),
    (2.0, 2, 0, "n 2.0 is not an integer"), (1, "3", 0, "d '3' is not an integer"),
    (2, 2, 1.5, "seed 1.5 is not an integer"), (2, 2, True, "seed True is not an integer"),
    (2, 2, -1, "seed -1 is negative"),
], ids=["2-3.0-d 3.0", "True-2-n True", "2.0-2-n 2.0", "1-3-d '3'",
        "seed 1.5", "seed True", "seed -1"])
def test_execute_merge_schedule_refuses_non_integers_before_any_draw(monkeypatch, n, d, seed,
                                                                     refusal):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    monkeypatch.setattr(Law, "label", lambda *a: pytest.fail("drew"))
    with pytest.raises(ValueError, match=refusal):
        execute_merge_schedule(n, d=d, seed=seed)
    monkeypatch.undo()
    # numpy integers are counts
    got = execute_merge_schedule(np.int64(2), d=np.int32(3), seed=4)
    assert got.corrections == execute_merge_schedule(2, d=3, seed=4).corrections


@pytest.mark.parametrize("d", [9, 10, 12, 161, 162, 1552])
def test_gaskets_past_the_old_circuit_cap(d):
    # the merge's law holds at every d and a gasket builds no state, so only
    # its draw bounds d (d^5 <= 2^53, d <= 1552; d = 162 was refused while the
    # apex GHZ was built): each label is read off the rule's frame of the five
    # digits of floor(u d^5)
    res = execute_merge_schedule(6, d=d, seed=d)
    assert res.fidelity == 1.0 and res.merge_count == 364
    law = triangle_merge_rule(d, False)
    k, frame = law
    uniforms = np.random.default_rng(d).random(364).tolist()
    assert k == 5
    assert res.corrections == [frame(law.outcome(int(u * d**k))).label
                               for u in uniforms]


def test_merge_execution_seeded_determinism():
    a = execute_merge_schedule(2, d=3, seed=21)
    b = execute_merge_schedule(2, d=3, seed=21)
    assert a.corrections == b.corrections


def test_network_base_case():
    net = build_quantum_network(0)
    assert len(net.vertices) == 3
    assert net.edge_count == 3
    assert len(net.channels) == 1


def test_network_counts_match_closed_forms():
    for t in range(7):
        net = build_quantum_network(t)
        assert len(net.vertices) == vertex_count(t)
        assert net.edge_count == edge_count(t)


def test_network_t3_explicit_counts():
    net = build_quantum_network(3)
    assert len(net.vertices) == 42
    assert net.edge_count == 120


def test_degree_law_exact():
    for t in range(1, 7):
        net = build_quantum_network(t)
        for v in net.vertices:
            gen = net.generation(v)
            deg = len(net.adjacency[v])
            if gen == 0:
                assert deg == 2 * (t + 1)
            else:
                assert deg == degree_of_generation(t, gen)


def test_neighbor_link_count_matches_graph():
    for t in (2, 3, 4):
        stats = brute_force_stats(build_quantum_network(t))
        assert stats["max_neighbor_link_error"] == 0.0


# sha256 of json.dumps(brute_force_stats(build_quantum_network(t)), sort_keys=True),
# recorded when each vertex's links were counted pair by pair over its
# neighbours and every vertex's expected count was an exact Fraction; re-recorded
# when the always-None "neighbor_links_by_vertex" key was dropped, as the
# digests of the earlier dicts without that key
BRUTE_FORCE_SHA256 = {
    1: "02c5ba8bb6bfb937643194a20b8238a5bea88d4e84a280e7cc392d36b22aebe4",
    2: "185092b42a4fdc6de8567c80d7d4fb96bed4ae0612973a3944ba78905750f12e",
    3: "3096f4ed742bad6519958ef14cf84b02334ee82c18a573eda643f07123c6c94a",
    4: "919bb670de5b8b734883145ff5d54677565a13b59e9b8bf2728332e97716cebb",
    5: "8bca63b0785295101aa4670c97766e14836bdd821147ef5948616357a32cef46",
    6: "0f0b03a29baa56de58183673624659a32d4ca690b011863c98c53665dc61a05f",
}


@pytest.mark.parametrize("t", sorted(BRUTE_FORCE_SHA256))
def test_brute_force_stats_are_pinned(t):
    stats = brute_force_stats(build_quantum_network(t))
    digest = hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()
    assert digest == BRUTE_FORCE_SHA256[t]


def test_average_degree_approaches_six():
    assert abs(float(average_degree(8)) - 6) < 0.1
    assert float(average_degree(2)) == pytest.approx(5.2)


def test_analytics_t2_values():
    rec = analytics(2)
    assert rec.n_vertices == 15
    assert rec.n_edges == 39
    assert rec.avg_degree == pytest.approx(5.2)
    assert rec.brute["edges"] == 39


def test_clustering_formula_matches_brute_force():
    # the closed-form average is exact for finite t, not just asymptotic
    for t in range(1, 6):
        formula = float(clustering_formula(t))
        brute = brute_force_stats(build_quantum_network(t))["clustering"]
        assert formula == pytest.approx(brute, abs=1e-12)


def test_clustering_limit():
    assert abs(float(clustering_formula(30)) - CLUSTERING_LIMIT) < 1e-3


def test_clustering_increment_decreasing():
    values = {t: float(clustering_formula(t)) for t in range(5, 16)}
    gaps = [abs(values[t] - values[t + 1]) for t in range(5, 15)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_cumulative_distribution_finite_vs_limit():
    t = 12
    for k in (4, 8, 12, 16):
        finite = float(cumulative_degree_fraction(t, k))
        limit = cumulative_degree_limit(k)
        assert finite == pytest.approx(limit, rel=0.02)
    with pytest.raises(ValueError):
        cumulative_degree_fraction(5, 3)


def test_cumulative_distribution_brute_force():
    t = 4
    rec = analytics(t)
    brute = {row["k"]: row["fraction"] for row in rec.brute["cumulative"]}
    for row in rec.cumulative:
        assert brute[row["k"]] == pytest.approx(row["finite"], abs=1e-12)


def test_analytics_range_checks():
    with pytest.raises(ValueError):
        analytics(0)
    with pytest.raises(ValueError):
        analytics(31)
    rec = analytics(8)  # above the brute-force cap: closed forms only
    assert rec.brute is None


@pytest.mark.parametrize("build, name", [(build_gasket, "n"), (merge_schedule, "n"),
                                         (build_quantum_network, "t"), (analytics, "t"),
                                         (clustering_formula, "t")])
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_iteration_inputs_refuse_non_integers(build, name, bad):
    with pytest.raises(ValueError, match=f"{name} {bad!r} is not an integer"):
        build(bad)
    # numpy integers are iterations
    assert build(np.int64(2)) == build(2)


def test_exports():
    net = build_quantum_network(1)
    blob = net.to_adjacency_json()
    assert len(blob["nodes"]) == 6
    edge_lines = net.to_edge_list().strip().splitlines()
    assert len(edge_lines) == 12
    rec = analytics(1)
    assert rec.csv_row().startswith("1,6,12,")
