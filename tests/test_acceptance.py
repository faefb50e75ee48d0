"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
Every tolerance and runtime budget is pinned in the test body.
"""

import itertools
import time

import numpy as np
import pytest

from walknet.fractal import (
    analytics,
    build_quantum_network,
    clustering_formula,
    degree_of_generation,
    edge_count,
    merge_schedule,
    vertex_count,
)
from walknet.mqss import MqssConfig, intercept_resend_error_rate, run_mqss
from walknet.network import (
    bundled_network_path,
    distribute,
    execute_schedule,
    load_network,
    plan_distribution,
    random_tree_instance,
    steiner_tree,
)
from walknet.protocols import ProtocolKind, ProtocolSpec, run_protocol
from walknet.qudit import canonical_ghz
from walknet.readout import (
    CountVector,
    correct_counts,
    kron_matrix,
    protocol_fidelity_under_noise,
    synthesize_counts,
    transfer_matrix,
)
from walknet.tables import TABLE_IDS, verify_table

from dense_reference import q_matrices

TOL = 1e-9


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} took {elapsed:.1f}s, budget {self.seconds}s")
            print(f"ACCEPTANCE {self.label} PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_table_verification():
    with Budget(5, "1 (tables 1-6 verified)"):
        for tid in TABLE_IDS:
            report = verify_table(tid)
            assert report.rows, f"table {tid} produced no rows"
            for row in report.rows:
                assert row.state_fidelity >= 1 - TOL, (tid, row.outcome)
                assert row.corrected_fidelity >= 1 - TOL, (tid, row.outcome)


def test_criterion_2_d_dimensional_correction_soundness():
    with Budget(60, "2 (d-dimensional correction soundness)"):
        for d in (2, 3, 5):
            for labels in itertools.product(range(d), repeat=4):
                res = run_protocol(ProtocolSpec(
                    ProtocolKind.BELL_SWAP_D, d=d, bell_labels=labels))
                assert len(res.branches) == d * d
                for b in res.branches:
                    k0, u0 = b.outcome
                    assert b.bell_label == (
                        (labels[0] + labels[2] - k0) % d,
                        (labels[1] + labels[3] - u0) % d)
                    assert b.label_fidelity >= 1 - TOL
                    assert b.fidelity >= 1 - TOL
        for d in (2, 3):
            specs = [ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=d),
                     ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=d)]
            specs += [ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=d, m=m, n=n, k=k)
                      for m, n, k in ((2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 3, 2), (4, 4, 3))]
            specs += [ProtocolSpec(ProtocolKind.GHZ_MULTI_COIN_D, d=d, m=m, n=n)
                      for m, n in ((2, 2), (2, 3), (3, 3), (4, 3), (3, 4))]
            specs += [ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=d, bells=M)
                      for M in (1, 2, 3)]
            for spec in specs:
                res = run_protocol(spec)
                assert res.all_recovered(TOL), spec
                assert res.total_probability == pytest.approx(1.0, abs=1e-9)


def test_criterion_3_party_count_identities():
    with Budget(30, "3 (merge party-count identities)"):
        for m in range(2, 6):
            for n in range(2, 6):
                for k in range(1, m):
                    res = run_protocol(ProtocolSpec(
                        ProtocolKind.MERGE_METHOD_1, m=m, n=n, k=k))
                    assert len(res.output_labels) == m + n - (k + 1)
                    assert res.all_recovered(TOL)
                for k in range(1, min(m, n)):
                    res = run_protocol(ProtocolSpec(
                        ProtocolKind.MERGE_METHOD_2, m=m, n=n, k=k))
                    assert len(res.output_labels) == m + n - 2 * k
                    assert res.all_recovered(TOL)
                for l in range(2, n):
                    for k in range(l + 1, m):
                        if k + l > m + n - 2:
                            continue
                        res = run_protocol(ProtocolSpec(
                            ProtocolKind.MERGE_COMBINED, m=m, n=n, k=k, l=l))
                        assert len(res.output_labels) == m + n - (k + l)
                        assert res.all_recovered(TOL)


def test_criterion_4_triangle_position_constraint():
    with Budget(30, "4 (triangle merge u1+u2=u3)"):
        for d in (2, 3):
            res = run_protocol(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=d))
            assert res.branches
            for b in res.branches:
                _, u1, _, _, u2, u3 = b.outcome
                assert (u1 + u2) % d == u3


def test_criterion_5_fractal_analytics():
    with Budget(30, "5 (fractal analytics)"):
        for t in range(0, 7):
            net = build_quantum_network(t)
            assert len(net.vertices) == vertex_count(t)
            assert net.edge_count == edge_count(t)
            for v in net.vertices:
                gen = net.generation(v)
                if gen >= 1:
                    assert len(net.adjacency[v]) == degree_of_generation(t, gen)
        assert abs(float(analytics(8).avg_degree) - 6) < 0.1
        assert abs(float(clustering_formula(30)) - 0.5480) < 1e-3
        for n in range(1, 11):
            assert len(merge_schedule(n)) == (3**n - 1) // 2


def test_criterion_6_network_distribution():
    with Budget(120, "6 (network distribution end-to-end)"):
        net = load_network(bundled_network_path())
        terminals = [1, 2, 5, 12, 13, 14]
        approx = steiner_tree(net, terminals)
        exact = steiner_tree(net, terminals, exact=True)
        assert len(approx.edges) == len(exact.edges)
        for d in (2, 3):
            _, _, result = distribute(net, terminals, mode="simulated", d=d, seed=20)
            assert result.fidelity >= 1 - TOL
            assert set(result.final_parties) == set(terminals)
        for i in range(200):
            d = 2 if i % 2 == 0 else 3
            rnet, rtree = random_tree_instance(seed=1000 + i, max_nodes=10,
                                               max_terminals=4, d=d)
            sched = plan_distribution(rtree, rnet)
            res = execute_schedule(sched, mode="simulated", d=d, seed=i)
            assert res.fidelity >= 1 - TOL, (i, d)


def test_criterion_7_mqss():
    with Budget(120, "7 (secret sharing end-to-end)"):
        rng = np.random.default_rng(7777)
        for i in range(1000):
            d = int(rng.integers(2, 8))
            m = int(rng.integers(2, 4))
            secret = int(rng.integers(-1000, 1000))
            t = run_mqss(MqssConfig(d=d, participants=m, secret=secret,
                                    detect_pairs=2, seed=i))
            assert not t.aborted
            assert t.reconstructed == secret
            assert all(c["error_rate"] == 0.0 for c in t.channel_checks)
        # attack detection: 200 seeded runs, 500 detecting pairs each
        aborts = 0
        errors = 0
        pairs_total = 0
        for i in range(200):
            t = run_mqss(MqssConfig(d=2, participants=2, secret=5,
                                    detect_pairs=500, threshold=0.05,
                                    eavesdrop_channel=1, seed=50_000 + i))
            aborts += t.aborted
            check = t.channel_checks[0]
            errors += round(check["error_rate"] * check["pairs"])
            pairs_total += check["pairs"]
        assert aborts > 0.99 * 200
        p = intercept_resend_error_rate(2)
        sigma = np.sqrt(p * (1 - p) / pairs_total)
        assert abs(errors / pairs_total - p) <= 3 * sigma


def test_criterion_8_readout_round_trip():
    with Budget(30, "8 (readout correction round trip)"):
        mats = q_matrices(4)
        truth = np.full(16, 0.5 / 16)
        truth[0] += 0.25
        truth[15] += 0.25
        counts = synthesize_counts(truth, mats, shots=10**6, seed=88)
        corrected = correct_counts(counts, mats)
        assert np.abs(corrected.probabilities - truth).sum() < 0.01
        assert corrected.clipped_mass == 0.0
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            sub = mats[:n]
            freq = rng.integers(1, 500, size=2**n)
            cv = CountVector(n, freq)
            factor = correct_counts(cv, sub).probabilities
            joint = np.linalg.inv(kron_matrix(sub)) @ cv.frequencies()
            joint = np.clip(joint, 0, None)
            joint /= joint.sum()
            assert np.abs(factor - joint).max() < 1e-10


def test_criterion_9_noise_substitute_property():
    with Budget(60, "9 (noiseless fidelity and depolarizing monotonicity)"):
        ident = [transfer_matrix(1.0, 1.0) for _ in range(3)]
        variants = [
            ProtocolSpec(ProtocolKind.BELL_SWAP_2D),
            ProtocolSpec(ProtocolKind.GHZ_SWAP_2D),
            ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=2),
            ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=2, bells=2),
            ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_2D),
        ]
        for spec in variants:
            branch = run_protocol(spec).branches[0]
            state = branch.correction.apply_to(branch.post)
            target = canonical_ghz(2, state.n)
            fid0 = protocol_fidelity_under_noise(
                state, ident[:state.n], 0.0, shots=10**6, seed=17, target=target)
            assert abs(fid0 - 1.0) < 0.01, spec
            fids = [protocol_fidelity_under_noise(
                state, ident[:state.n], p, shots=10**6, seed=17, target=target)
                for p in (0.0, 0.02, 0.05, 0.1)]
            assert all(a >= b for a, b in zip(fids, fids[1:])), (spec, fids)
