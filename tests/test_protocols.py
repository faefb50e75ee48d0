"""Walk-protocol behavior: walk steps, corrections, reductions, invariants."""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import walknet
from walknet import fractal, network, protocols, tables
from walknet.protocols import (
    CorrectionError,
    ProtocolKind,
    ProtocolSpec,
    Stage,
    correction_for,
    derive_ghz_correction,
    outcome_parity,
    run_protocol,
    run_stages,
    triangle_merge_stages,
    walk_step,
)
from walknet.qudit import (
    Basis,
    QuditState,
    SizeCapError,
    apply,
    basis_state,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_op,
    identity_op,
    pauli_x,
    tensor,
)

from dense_reference import dense_compile, forbid_register, workloads

TOL = 1e-9


def test_walk_step_reproduces_four_particle_superposition():
    # one X-coined step on Bell x Bell, coin = site 1, position = site 2
    init = tensor(canonical_bell(2, 0, 0), canonical_bell(2, 0, 0))
    out = walk_step(init, 1, 2, pauli_x(2))
    expect = np.zeros(16, dtype=complex)
    for bits in ("0110", "0101", "1000", "1011"):
        expect[int(bits, 2)] = 0.5
    assert np.allclose(out.amps, expect)


def test_walk_step_identity_coin_control_off():
    init = basis_state(2, [0, 1])
    out = walk_step(init, 0, 1, identity_op(2))
    assert np.allclose(out.amps, init.amps)


def test_walk_step_two_steps_match_six_particle_state():
    # X then H coins on GHZ x GHZ, both shifting onto site 3
    init = tensor(canonical_ghz(2, 3), canonical_ghz(2, 3))
    out = walk_step(init, 1, 3, pauli_x(2))
    out = walk_step(out, 2, 3, fourier_op(2))
    # all nonzero magnitudes are 1/(2 sqrt 2) across 8 computational kets
    mags = np.abs(out.amps)
    assert np.count_nonzero(mags > 1e-12) == 8
    assert np.allclose(mags[mags > 1e-12], 1 / (2 * np.sqrt(2)))


def test_walk_step_site_collision_rejected():
    with pytest.raises(ValueError):
        walk_step(canonical_bell(2, 0, 0), 1, 1, pauli_x(2))


def test_bell_swap_2d_uniform_outcomes_and_recovery():
    res = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D))
    assert len(res.branches) == 4
    for b in res.branches:
        assert b.probability == pytest.approx(0.25, abs=1e-12)
        assert b.fidelity >= 1 - TOL
    assert res.all_recovered()


def test_bell_swap_2d_named_rows():
    res = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D))
    by_outcome = {b.outcome: b for b in res.branches}
    psi_01 = canonical_bell(2, 0, 1)  # (|01> + |10>)/sqrt2
    assert fidelity(by_outcome[(0, 0)].post, psi_01) >= 1 - TOL
    assert by_outcome[(0, 1)].correction.label == "I"
    assert fidelity(by_outcome[(0, 1)].post, canonical_bell(2, 0, 0)) >= 1 - TOL


def test_ghz_swap_2d_uniform_outcomes():
    res = run_protocol(ProtocolSpec(ProtocolKind.GHZ_SWAP_2D))
    assert len(res.branches) == 8
    assert all(b.probability == pytest.approx(1 / 8, abs=1e-12) for b in res.branches)
    assert res.all_recovered()
    by_outcome = {b.outcome: b for b in res.branches}
    minus_ghz = QuditState(2, 3, -np.array(canonical_ghz(2, 3).amps))
    flip = np.zeros(8, dtype=complex)
    flip[0b011] = flip[0b100] = -1 / np.sqrt(2)
    assert fidelity(by_outcome[(1, 1, 1)].post, QuditState(2, 3, flip)) >= 1 - TOL
    assert by_outcome[(1, 1, 1)].correction.label == "-X1"
    assert fidelity(by_outcome[(1, 1, 0)].post, minus_ghz) >= 1 - TOL


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_swap_d_label_arithmetic(d):
    labels = [(0, 0, 0, 0), (1, 0, 0, 1), (1, 2, 2, 1) if d > 2 else (1, 1, 1, 1)]
    for lab in labels:
        lab = tuple(x % d for x in lab)
        res = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=d, bell_labels=lab))
        assert len(res.branches) == d * d
        for b in res.branches:
            k0, u0 = b.outcome
            assert b.bell_label == ((lab[0] + lab[2] - k0) % d, (lab[1] + lab[3] - u0) % d)
            assert b.label_fidelity >= 1 - TOL
            assert b.fidelity >= 1 - TOL


def test_bell_swap_d_qutrit_example():
    res = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=(1, 2, 2, 1)))
    br = next(b for b in res.branches if b.outcome == (0, 0))
    assert br.bell_label == (0, 0)
    assert fidelity(br.post, canonical_bell(3, 0, 0)) >= 1 - TOL


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (3, 3, 2), (4, 3, 2), (5, 4, 4)])
def test_method1_party_count_and_recovery(m, n, k):
    res = run_protocol(ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=m, n=n, k=k))
    assert len(res.output_labels) == m + n - (k + 1)
    assert res.all_recovered()


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (3, 3, 2), (5, 4, 3)])
def test_method2_party_count_and_recovery(m, n, k):
    res = run_protocol(ProtocolSpec(ProtocolKind.MERGE_METHOD_2, m=m, n=n, k=k))
    assert len(res.output_labels) == m + n - 2 * k
    assert res.all_recovered()


@pytest.mark.parametrize("m,n,k,l", [(5, 5, 3, 2), (5, 4, 3, 2), (5, 5, 4, 3)])
def test_combined_party_count_and_recovery(m, n, k, l):
    res = run_protocol(ProtocolSpec(ProtocolKind.MERGE_COMBINED, m=m, n=n, k=k, l=l))
    assert len(res.output_labels) == m + n - (k + l)
    assert res.all_recovered()


def test_method1_equals_bell_swap_when_minimal():
    res = run_protocol(ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=2, n=2, k=1))
    table = {b.outcome: b for b in run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D)).branches}
    for b in res.branches:
        assert fidelity(b.post, table[b.outcome].post) >= 1 - TOL


@pytest.mark.parametrize("retain_kind,params", [
    (ProtocolKind.MERGE_METHOD_1, dict(m=3, n=3, k=2)),
    (ProtocolKind.MERGE_METHOD_1, dict(m=4, n=3, k=2)),
    (ProtocolKind.MERGE_METHOD_2, dict(m=3, n=3, k=2)),
    (ProtocolKind.MERGE_METHOD_2, dict(m=4, n=4, k=3)),
])
def test_retained_coin_variants_recover_ghz(retain_kind, params):
    res = run_protocol(ProtocolSpec(retain_kind, retain_coins=True, **params))
    m, n, k = params["m"], params["n"], params["k"]
    expect = (m + n - k) if retain_kind is ProtocolKind.MERGE_METHOD_1 else (m + n - k)
    assert len(res.output_labels) == expect
    assert res.all_recovered()


@pytest.mark.parametrize("d", [2, 3])
def test_ghz_parallel_d_branches(d):
    res = run_protocol(ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=d, m=3, n=3, k=2))
    assert res.all_recovered()
    # position results agree on every surviving branch
    for b in res.branches:
        assert b.outcome[2] == b.outcome[3]
    retained = run_protocol(ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=d, m=3, n=3,
                                         k=2, retain_coins=True))
    assert retained.all_recovered()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ghz_swap_d_coin_results_coincide(d):
    res = run_protocol(ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=d))
    assert len(res.branches) == d * d
    for b in res.branches:
        assert b.outcome[0] == b.outcome[1]
        assert b.probability == pytest.approx(1 / d**2, abs=1e-10)
    assert res.all_recovered()


@pytest.mark.parametrize("d,m,n", [(2, 2, 2), (2, 4, 3), (3, 3, 3), (3, 2, 4)])
def test_ghz_multi_coin_d(d, m, n):
    res = run_protocol(ProtocolSpec(ProtocolKind.GHZ_MULTI_COIN_D, d=d, m=m, n=n))
    assert len(res.output_labels) == n
    assert res.all_recovered()


@pytest.mark.parametrize("d,bells", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_ghz_from_bells_d(d, bells):
    res = run_protocol(ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=d, bells=bells))
    assert len(res.output_labels) == bells + 1
    assert res.all_recovered()


def test_ghz_from_bells_matches_bell_swap_branch_sets():
    """Same four post-states with the same masses as the coin-X qubit swap."""
    def state_classes(result):
        classes = {}
        for b in result.branches:
            amps = b.post.amps
            ref = amps[np.argmax(np.abs(amps) > 1e-9)]
            key = tuple(np.round(amps / ref * np.sqrt(2), 6))
            classes[key] = classes.get(key, 0) + b.probability
        return classes

    merged = state_classes(run_protocol(ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=2, bells=1)))
    swapped = state_classes(run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D)))
    assert set(merged) == set(swapped)
    for key in merged:
        assert merged[key] == pytest.approx(swapped[key], abs=1e-9)


@pytest.mark.parametrize("pair", [
    (ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=2), ProtocolSpec(ProtocolKind.BELL_SWAP_2D)),
    (ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=2), ProtocolSpec(ProtocolKind.GHZ_SWAP_2D)),
    (ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=2, m=3, n=3, k=2),
     ProtocolSpec(ProtocolKind.MERGE_METHOD_2, m=3, n=3, k=2)),
    (ProtocolSpec(ProtocolKind.GHZ_MULTI_COIN_D, d=2, m=3, n=3),
     ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=3, n=3, k=2)),
])
def test_qubit_reduction_consistency(pair):
    """At d=2 each generalized protocol yields the same residual-state classes
    with the same probability masses as its dedicated qubit counterpart."""
    def classes(spec):
        out = {}
        for b in run_protocol(spec).branches:
            amps = b.post.amps
            ref = amps[np.flatnonzero(np.abs(amps) > 1e-9)[0]]
            key = tuple(np.round(amps / ref, 6))
            out[key] = out.get(key, 0.0) + b.probability
        return out

    ca, cb = classes(pair[0]), classes(pair[1])
    assert set(ca) == set(cb)
    for key in ca:
        assert ca[key] == pytest.approx(cb[key], abs=1e-9)


def test_triangle_merge_2d():
    res = run_protocol(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_2D))
    assert res.output_labels == ("a", "b", "c")
    assert res.all_recovered()


@pytest.mark.parametrize("d", [2, 3])
def test_triangle_merge_d_constraint(d):
    res = run_protocol(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=d))
    assert res.all_recovered()
    for b in res.branches:
        _, u1, _, _, u2, u3 = b.outcome
        assert (u1 + u2) % d == u3


def test_correction_for_matches_run_protocol():
    spec = ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=3)
    for b in run_protocol(spec).branches:
        corr = correction_for(spec.kind, 3, b.outcome, spec)
        assert fidelity(corr.apply_to(b.post), canonical_ghz(3, 3)) >= 1 - TOL


def test_correction_for_table_kinds():
    assert correction_for(ProtocolKind.BELL_SWAP_2D, 2, (0, 0)).label == "X1"
    assert correction_for(ProtocolKind.GHZ_SWAP_2D, 2, (0, 0, 1)).label == "I"
    spec = ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=3)
    corr = correction_for(ProtocolKind.GHZ_SWAP_D, 3, (1, 1, 2), spec)
    assert "U[0,2]" in corr.label and "Z^1" in corr.label


def test_correction_for_derived_kind():
    spec = ProtocolSpec(ProtocolKind.MERGE_COMBINED, m=4, n=4, k=3, l=2)
    res = run_protocol(spec)
    b = res.branches[3]
    corr = correction_for(spec.kind, 2, b.outcome, spec)
    assert fidelity(corr.apply_to(b.post), canonical_ghz(2, 3)) >= 1 - TOL


def test_correction_for_rejects_impossible_outcome():
    spec = ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=3)
    with pytest.raises(ValueError):
        correction_for(spec.kind, 3, (0, 0, 0, 0, 1, 0), spec)


def test_derive_ghz_correction_oracle_agreement():
    """Pattern-derived corrections agree with closed-form ones branch by branch."""
    specs = [
        ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=3, bells=2),
        ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=3),
        ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=3, m=3, n=3, k=1),
    ]
    for spec in specs:
        for b in run_protocol(spec).branches:
            derived = derive_ghz_correction(b.post)
            target = canonical_ghz(spec.d, b.post.n)
            assert fidelity(derived.apply_to(b.post), target) >= 1 - TOL
            # corrected states from both routes agree up to global phase
            assert fidelity(derived.apply_to(b.post), b.correction.apply_to(b.post)) >= 1 - TOL


def test_derive_ghz_correction_rejects_non_ghz():
    with pytest.raises(CorrectionError):
        derive_ghz_correction(basis_state(2, [0, 1]))
    w = QuditState(2, 2, np.array([1, 1, 1, 1], dtype=complex) / 2)
    with pytest.raises(CorrectionError):
        derive_ghz_correction(w)


def test_outcome_parity():
    assert outcome_parity([1, 0, 1]) == 0
    assert outcome_parity([1, 0, 0]) == 1
    assert outcome_parity([]) == 0


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=3, n=3, k=3).validate()
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.MERGE_METHOD_2, m=3, n=3, k=3).validate()
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.MERGE_COMBINED, m=5, n=5, k=2, l=2).validate()
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.BELL_SWAP_2D, d=3).validate()
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=2, bell_labels=(0, 0, 2, 0)).validate()
    with pytest.raises(ValueError):
        ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=3, retain_coins=True).validate()


@pytest.mark.parametrize("spec, refusal", [
    (ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=3.0), "d 3.0 is not an integer"),
    (ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=3.0, n=3, k=1), "m 3.0 is not an integer"),
    (ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=3, bells=True), "bells True is not an integer"),
    (ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=(0, 1.0, 0, 0)),
     "bell label 1.0 is not an integer"),
    (ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=(1, 2)),
     "bell_labels (1, 2) are not four integers"),
    (ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=(1, 2, 0, 1, 0)),
     "bell_labels (1, 2, 0, 1, 0) are not four integers"),
    (ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=5), "bell_labels 5 are not four integers"),
    (ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=3, n=3, k=1, retain_coins="no"),
     "retain_coins 'no' is not a bool"),
    (ProtocolSpec(ProtocolKind.MERGE_METHOD_2, m=3, n=3, k=1, retain_coins=0.0),
     "retain_coins 0.0 is not a bool"),
    (ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d="3"), "d '3' is not an integer"),
    (ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=1), "d must be >= 2"),
], ids=["d", "m", "bells", "bell-label", "two-labels", "five-labels", "int-labels",
        "retain-str", "retain-float", "d-str", "d=1"])
def test_spec_refuses_non_integer_counts_before_any_stage(monkeypatch, spec, refusal):
    forbid_register(monkeypatch)
    for run in (spec.validate, lambda: run_protocol(spec)):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            run()
    # numpy integers are counts
    ProtocolSpec(ProtocolKind.GHZ_SWAP_D, d=np.int64(3)).validate()


def test_result_serialization():
    res = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D))
    blob = res.to_dict()
    assert blob["protocol"] == "bell-swap-2d"
    assert len(blob["branches"]) == 4
    assert {"outcome", "probability", "correction", "fidelity"} <= set(blob["branches"][0])
    # numpy scalars in a spec reach the JSON as Python ones
    for kind, params in ((ProtocolKind.GHZ_SWAP_D, {"d": 3}),
                         (ProtocolKind.BELL_SWAP_D, {"d": 3, "bell_labels": (1, 2, 0, 1)})):
        typed = {name: np.int64(v) if name == "d" else tuple(map(np.int64, v))
                 for name, v in params.items()}
        want = run_protocol(ProtocolSpec(kind, **params)).to_json()
        assert run_protocol(ProtocolSpec(kind, **typed)).to_json() == want


def test_random_parameter_soundness_sweep():
    """Seeded random (kind, params) draws all recover their canonical target."""
    rng = np.random.default_rng(2024)
    for _ in range(25):
        d = int(rng.choice([2, 3]))
        kind = rng.choice([
            ProtocolKind.GHZ_PARALLEL_D, ProtocolKind.GHZ_MULTI_COIN_D,
            ProtocolKind.GHZ_FROM_BELLS_D,
        ])
        if kind is ProtocolKind.GHZ_PARALLEL_D:
            m = int(rng.integers(2, 5)); n = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(m, n)))
            spec = ProtocolSpec(kind, d=d, m=m, n=n, k=k)
        elif kind is ProtocolKind.GHZ_MULTI_COIN_D:
            spec = ProtocolSpec(kind, d=d, m=int(rng.integers(2, 5)), n=int(rng.integers(2, 5)))
        else:
            spec = ProtocolSpec(kind, d=d, bells=int(rng.integers(1, 4)))
        assert run_protocol(spec).all_recovered(), spec


@pytest.mark.parametrize("d", [2, 3])
def test_exhaustive_small_parameter_soundness(d):
    """Every valid merge parameter set with m, n <= 4 recovers its target,
    including the coin-retention variants."""
    for m in range(2, 5):
        for n in range(2, 5):
            for k in range(1, min(m, n)):
                for retain in (False, True):
                    spec = ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=d,
                                        m=m, n=n, k=k, retain_coins=retain)
                    assert run_protocol(spec).all_recovered(), spec
            spec = ProtocolSpec(ProtocolKind.GHZ_MULTI_COIN_D, d=d, m=m, n=n)
            assert run_protocol(spec).all_recovered(), spec
            if d == 2:
                for k in range(1, m):
                    for retain in (False, True):
                        spec = ProtocolSpec(ProtocolKind.MERGE_METHOD_1,
                                            m=m, n=n, k=k, retain_coins=retain)
                        assert run_protocol(spec).all_recovered(), spec


def test_run_stages_exhaustive_branches_and_after_ops():
    stage = Stage(add=((canonical_bell(3, 0, 0), ("1", "2")),
                       (canonical_bell(3, 0, 0), ("3", "4"))),
                  gates=(("2", "3", identity_op(3)), ("4", fourier_op(3))),
                  targets=(("2", Basis.FOURIER), ("3", Basis.COMPUTATIONAL)))
    branches = list(run_stages([stage], ("1", "4")))
    assert [vals for vals, _, _ in branches] == [(k, u) for k in range(3) for u in range(3)]
    assert abs(sum(p for _, p, _ in branches) - 1) < TOL
    for _, _, post in branches:
        assert post.n == 2
    # the gate on 4 ran: undoing it leaves the swapped Bell pair
    vals, _, post = branches[0]
    undone = apply(post, fourier_op(3).dagger(), [1])
    assert fidelity(undone, canonical_bell(3, 0, 0)) > 1 - TOL


@pytest.mark.parametrize("outputs", [("a", "b"), ("a", "b", "c", "x"), ("a", "b", "q1"),
                                     ("a", "b", "b")], ids=["missing", "extra", "measured",
                                                            "repeated"])
@pytest.mark.parametrize("run", [lambda stages, outputs: list(run_stages(stages, outputs)),
                                 dense_compile], ids=["exhaustive", "compiled"])
def test_wrong_outputs_refused_before_any_resource_is_added(monkeypatch, run, outputs):
    stages = triangle_merge_stages(3, [canonical_ghz(3, 3)] * 3, qubit=False)
    forbid_register(monkeypatch)
    with pytest.raises(ValueError, match="are not the circuit's unread particles"):
        run(stages, outputs)


@pytest.mark.parametrize("run, error, refusal", [
    (lambda: run_protocol(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=9)), SizeCapError,
     "7 sites at d=9"),
    (lambda: run_protocol(ProtocolSpec(ProtocolKind.GHZ_PARALLEL_D, d=5, m=6, n=6, k=1)),
     SizeCapError, "10 sites at d=5"),
    (lambda: fractal.execute_merge_schedule(1, d=1553), ValueError,
     re.escape("a gasket at d=1553 has d^5 > 2^53 merge outcomes")),
], ids=["protocol", "residual", "gasket"])
def test_over_cap_circuit_refused_before_any_stage_runs(monkeypatch, run, error, refusal):
    # stage 1 of the qudit triangle merge fits at d=9 (6 sites), stage 2 peaks
    # at 7: the whole circuit is refused before its first resource is added.
    # The d=5 parallel merge's compact register peaks at 4 sites, but its
    # residual over the 10 outputs would hold 5^10 amplitudes.
    # A gasket runs no circuit and builds no state: its one limit is its
    # draw's, 1553^5 > 2^53 merge outcomes, refused before any draw
    forbid_register(monkeypatch)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(error, match=refusal):
        run()


@pytest.mark.parametrize("d", [3, 5])
def test_each_resource_is_compacted_once(monkeypatch, d):
    # the plan compacts the three triples once each, not once per stage-2 branch
    calls = []
    compact = protocols._compact
    monkeypatch.setattr(protocols, "_compact", lambda *a: calls.append(a) or compact(*a))
    protocols._law_table.cache_clear()   # a kept shape plans nothing
    result = run_protocol(ProtocolSpec(ProtocolKind.TRIANGLE_MERGE_D, d=d))
    assert len(calls) == 3 and result.all_recovered()


def _bell(d=2):
    return canonical_bell(d, 0, 0)


@pytest.mark.parametrize("stages, outputs, refusal", [
    ((), (), "resources of one local dimension, not []"),
    ((Stage(), Stage(add=((_bell(), ("a", "b")),), targets=(("a", Basis.COMPUTATIONAL),))),
     ("b",), "stage 1 has an empty register"),
    ((Stage(add=((_bell(), ("a", "b")),)),), ("a", "b"), "stage 1 has no targets"),
    ((Stage(add=((_bell(), ("a", "b")),), targets=(("a", Basis.COMPUTATIONAL),)),
      Stage(add=((_bell(3), ("c", "d")),), targets=(("c", Basis.COMPUTATIONAL),))),
     ("b", "d"), "resources of one local dimension, not [2, 3]"),
    ((Stage(add=((_bell(), ("a", "b")), (_bell(), ("a", "c"))),
            targets=(("a", Basis.COMPUTATIONAL),)),),
     ("b", "c"), "labels ['a', 'b', 'a', 'c'] do not name each added site once"),
    ((Stage(add=((_bell(), ("a",)),), targets=(("a", Basis.COMPUTATIONAL),)),),
     (), "labels ['a'] do not name each added site once"),
    ((Stage(add=((_bell(), ("a", "b", "c")),), targets=(("a", Basis.COMPUTATIONAL),)),),
     ("b", "c"), "labels ['a', 'b', 'c'] do not name each added site once"),
    ((Stage(add=((_bell(), ("a", "b")),),
            targets=(("a", Basis.COMPUTATIONAL), ("a", Basis.FOURIER))),),
     ("b",), "stage 1 reads 'a' twice"),
    ((Stage(add=((_bell(), ("a", "b")),), gates=(("a", "x", identity_op(2)),),
            targets=(("a", Basis.COMPUTATIONAL),)),),
     ("b",), "stage 1 names 'x', which is not in its register"),
], ids=["no-stages", "first-stage-adds-nothing", "no-targets", "mixed-d", "repeated-label",
        "too-few-labels", "too-many-labels", "repeated-target", "unknown-gate-label"])
def test_malformed_circuit_refused_before_any_resource_is_added(monkeypatch, stages, outputs,
                                                                refusal):
    forbid_register(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(refusal)):
        list(run_stages(stages, outputs))


def test_qubit_swap_tables_are_the_correction_source():
    assert tables.TABLE_1 is protocols.TABLE_1 and tables.TABLE_2 is protocols.TABLE_2
    for kind, table in ((ProtocolKind.BELL_SWAP_2D, tables.TABLE_1),
                        (ProtocolKind.GHZ_SWAP_2D, tables.TABLE_2)):
        for outcome, (_, site_ops, sign, _) in table.items():
            corr = correction_for(kind, 2, outcome)
            assert [(s, name) for s, name, _ in corr.ops] == site_ops
            assert corr.global_phase == sign


def test_no_module_imports_a_private_name_from_another():
    for path in Path(walknet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private}"


def test_no_test_module_imports_another():
    here = Path(__file__).parent
    modules = {path.stem for path in here.glob("test_*.py")}
    for path in sorted(here.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            assert not names & modules, f"{path.name} imports {sorted(names & modules)}"


def test_correction_for_runs_each_spec_once(monkeypatch):
    specs = [ProtocolSpec(ProtocolKind.MERGE_COMBINED, m=4, n=3, k=3, l=2),
             ProtocolSpec(ProtocolKind.MERGE_METHOD_1, m=3, n=2, k=2, retain_coins=True)]
    expected = [{b.outcome: b.correction for b in run_protocol(spec).branches}
                for spec in specs]
    protocols._corrections.cache_clear()
    calls = []
    real = protocols.derive_ghz_correction
    monkeypatch.setattr(protocols, "derive_ghz_correction",
                        lambda state, **kw: calls.append(state) or real(state, **kw))
    with pytest.raises(ValueError, match="zero probability"):
        correction_for(ProtocolKind.MERGE_COMBINED, 2, (0, 0, 0, 0, 1), specs[0])
    assert len(calls) == len(expected[0])   # the refusal built the table
    for spec, branches in zip(specs, expected):
        counts = []
        for outcome, want in branches.items():
            calls.clear()
            corr = correction_for(spec.kind, 2, outcome, spec)
            counts.append(len(calls))
            assert (corr.label, corr.global_phase) == (want.label, want.global_phase)
        # one exhaustive pass on a spec's first lookup, a table read after it
        first = 0 if spec is specs[0] else len(branches)
        assert counts == [first] + [0] * (len(branches) - 1)


def _support_cases():
    for spec in workloads.protocol_grid(small=True):
        stages, _, _, _ = protocols.circuit(spec)
        length = sum(len(stage.targets) for stage in stages)
        if spec.d ** length <= 4096:
            yield spec, length


def test_correction_for_answers_exactly_on_the_support():
    cases = list(_support_cases())
    assert len(cases) == 160
    tuples = 0
    for spec, length in cases:
        branches = {b.outcome: b.correction for b in run_protocol(spec).branches}
        for outcome in itertools.product(range(spec.d), repeat=length):
            tuples += 1
            if outcome not in branches:
                with pytest.raises(ValueError, match="zero probability"):
                    correction_for(spec.kind, spec.d, outcome, spec)
                continue
            corr, want = correction_for(spec.kind, spec.d, outcome, spec), branches[outcome]
            assert (corr.label, corr.global_phase) == (want.label, want.global_phase)
            assert [op[:2] for op in corr.ops] == [op[:2] for op in want.ops]
    assert tuples == 2212
    # a wrong length or an out-of-range digit is outside the support too
    for outcome in ((0,), (0, 0, 0), (0, 2)):
        with pytest.raises(ValueError, match="zero probability"):
            correction_for(ProtocolKind.BELL_SWAP_2D, 2, outcome)


def test_correction_for_takes_list_valued_bell_labels():
    spec = ProtocolSpec(ProtocolKind.BELL_SWAP_D, d=3, bell_labels=[1, 2, 0, 1])
    for b in run_protocol(spec).branches:
        corr = correction_for(spec.kind, 3, b.outcome, spec)
        assert corr.label == b.correction.label
        assert fidelity(corr.apply_to(b.post), canonical_bell(3, 0, 0)) >= 1 - TOL


def test_merge_method_corrections_are_the_table_rows():
    for m, n, k in ((3, 3, 2), (4, 4, 3), (5, 3, 2), (4, 3, 2), (2, 2, 1)):
        for kind, row in ((ProtocolKind.MERGE_METHOD_1, protocols.table3_row),
                          (ProtocolKind.MERGE_METHOD_2, protocols.table4_row)):
            spec = ProtocolSpec(kind, m=m, n=n, k=k)
            for b in run_protocol(spec).branches:
                site_ops, sign = row(m, n, k, b.outcome)[1:3]
                assert [(s, name) for s, name, _ in b.correction.ops] == site_ops
                assert b.correction.global_phase == sign


def _affine_ghz(d, offsets, x):
    """(1/sqrt d) sum_r w^(-x r) |r + a_0, ..., r + a_(P-1)>, built densely."""
    n, w = len(offsets), np.exp(2j * np.pi / d)
    amps = np.zeros(d**n, dtype=complex)
    for r in range(d):
        amps[sum((r + a) % d * d ** (n - 1 - j) for j, a in enumerate(offsets))] = w ** (-x * r)
    return QuditState(d, n, amps / np.sqrt(d))


@pytest.mark.parametrize("d", range(2, 8))
def test_affine_frame_is_the_derived_normal_form(d):
    # read off the offsets, the correction is derive_ghz_correction's answer
    # on the amplitudes: equal labels and global phases, and it restores the
    # canonical GHZ amplitude for amplitude.  The law whose readouts are the
    # offsets, then x, is the network steps' affine frame
    rng = np.random.default_rng(d)
    for n in (2, 3, 4):
        _, frame = network._affine_law(d, n + 1, tuple(range(n)), n)
        every = d**n <= 64
        cases = (itertools.product(range(d), repeat=n) if every
                 else (tuple(int(a) for a in rng.integers(0, d, n)) for _ in range(24)))
        for offsets in cases:
            for x in range(d):
                state = _affine_ghz(d, offsets, x)
                corr = frame(offsets + (x,)).correction()
                ref = derive_ghz_correction(state)
                assert corr.label == ref.label
                assert abs(corr.global_phase - ref.global_phase) <= 1e-12
                assert np.abs(corr.apply_to(state).amps - canonical_ghz(d, n).amps).max() <= 1e-12
