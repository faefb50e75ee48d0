"""Transfer matrices, count correction, and the noisy-fidelity estimator."""

import warnings

import numpy as np
import pytest

from walknet.protocols import ProtocolKind, ProtocolSpec, run_protocol
from walknet.qudit import canonical_ghz
from walknet.readout import (
    STOCHASTIC,
    CountVector,
    bundled_device_path,
    correct_counts,
    depolarized_fidelity,
    kron_matrix,
    load_device_records,
    protocol_fidelity_under_noise,
    synthesize_counts,
    transfer_matrix,
)

from dense_reference import q_matrices


def ident_matrices(n):
    return [transfer_matrix(1.0, 1.0) for _ in range(n)]


def test_identity_transfer_matrix():
    m = transfer_matrix(1.0, 1.0)
    assert np.allclose(m.matrix, np.eye(2))


def test_symmetric_matrix_layout_q1():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = transfer_matrix(0.9850, 0.9420)
    assert np.allclose(m.matrix, [[0.9850, 0.0580], [0.0580, 0.9420]])


def test_stochastic_matrix_columns_sum_to_one():
    m = transfer_matrix(0.9850, 0.9420, mode=STOCHASTIC)
    assert np.allclose(m.matrix.sum(axis=0), [1.0, 1.0])


def test_symmetric_mode_warns_when_not_stochastic():
    with pytest.warns(UserWarning, match="column-stochastic"):
        transfer_matrix(0.9, 0.8)


def test_near_singular_warning():
    with pytest.warns(UserWarning, match="near-singular"):
        transfer_matrix(0.51, 0.51, mode=STOCHASTIC)


def test_fidelity_range_enforced():
    with pytest.raises(ValueError):
        transfer_matrix(0.4, 0.9)
    with pytest.raises(ValueError):
        transfer_matrix(0.9, 1.1)


def test_count_vector_roundtrip():
    cv = CountVector.from_dict({"00": 3, "11": 5})
    assert cv.total == 8
    assert cv.to_dict() == {"00": 3, "11": 5}
    with pytest.raises(ValueError):
        CountVector.from_dict({"0x": 1})
    with pytest.raises(ValueError):
        CountVector(1, np.array([0, 0]))


@pytest.mark.parametrize("mapping", [{"": 5}, {"": 5, "00": 1}, {"00": 1, "": 5}])
def test_count_vector_refuses_an_empty_bitstring_by_name(mapping):
    with pytest.raises(ValueError, match="bad bitstring ''"):
        CountVector.from_dict(mapping)


@pytest.mark.parametrize("mapping", [[["00", 5]], ["00"], {}])
def test_count_vector_refuses_anything_but_a_nonempty_object(mapping):
    with pytest.raises(ValueError, match="non-empty JSON object"):
        CountVector.from_dict(mapping)


@pytest.mark.parametrize("table", ["qubit,f1\nq0,0.9\n", "qubit,f0,f1\nq0,0.9\n"])
def test_device_table_without_an_f0_or_f1_value_refused(tmp_path, table):
    p = tmp_path / "dev.csv"
    p.write_text(table)
    with pytest.raises(ValueError, match="needs qubit, f0 and f1"):
        load_device_records(p)


@pytest.mark.parametrize("mapping", [{"00": [1], "11": 5}, {"00": 2.7, "11": 5},
                                     {"00": 2, "11": "5"}, {"00": True, "11": 5}])
def test_count_vector_refuses_counts_that_are_not_integers(mapping):
    with pytest.raises(ValueError, match="is not an integer"):
        CountVector.from_dict(mapping)


@pytest.mark.parametrize("row", ['{"qubit": "A", "f0": [0.9], "f1": 0.97}',
                                 '{"qubit": "A", "f0": 0.9, "f1": "high"}'])
def test_device_record_with_a_non_numeric_fidelity_refused(tmp_path, row):
    p = tmp_path / "dev.json"
    p.write_text(f"[{row}]")
    with pytest.raises(ValueError, match="'qubit': 'A'.* non-numeric f0 or f1"):
        load_device_records(p)


def test_bundled_device_table():
    recs = load_device_records(bundled_device_path())
    assert len(recs) == 10
    assert recs[0].qubit == "Q1"
    assert recs[0].f0 == pytest.approx(0.9850)
    assert recs[0].f1 == pytest.approx(0.9420)
    assert "t1_us" in recs[0].extras


def test_json_device_records(tmp_path):
    p = tmp_path / "dev.json"
    p.write_text('[{"qubit": "A", "f0": 0.99, "f1": 0.97, "note": "x"}]')
    recs = load_device_records(p)
    assert recs[0].extras["note"] == "x"


def test_identity_correction_preserves_frequencies():
    cv = CountVector.from_dict({"00": 250, "01": 250, "10": 250, "11": 250})
    out = correct_counts(cv, ident_matrices(2))
    assert np.allclose(out.probabilities, 0.25)
    assert out.clipped_mass == 0.0


def test_factorwise_equals_explicit_kron_inverse():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        mats = q_matrices(n)
        counts = CountVector(n, rng.integers(1, 1000, size=2**n))
        factor = correct_counts(counts, mats)
        joint = np.linalg.inv(kron_matrix(mats)) @ counts.frequencies()
        joint = np.clip(joint, 0, None)
        joint /= joint.sum()
        assert np.allclose(factor.probabilities, joint, atol=1e-10)


def test_synthesize_identity_delta():
    probs = np.zeros(4)
    probs[0] = 1.0
    cv = synthesize_counts(probs, ident_matrices(2), shots=500, seed=1)
    assert cv.counts[0] == 500


def test_synthesize_law_of_large_numbers():
    mats = q_matrices(2)
    probs = np.array([0.4, 0.1, 0.2, 0.3])
    cv = synthesize_counts(probs, mats, shots=10**6, seed=3)
    noisy = kron_matrix(mats) @ probs
    noisy /= noisy.sum()
    assert np.abs(cv.frequencies() - noisy).sum() < 0.01


def test_synthesize_deterministic_under_seed():
    mats = q_matrices(2)
    probs = np.full(4, 0.25)
    a = synthesize_counts(probs, mats, shots=1000, seed=7)
    b = synthesize_counts(probs, mats, shots=1000, seed=7)
    assert (a.counts == b.counts).all()


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_counts(np.array([0.5, 0.4]), ident_matrices(1), 10)
    with pytest.raises(ValueError):
        synthesize_counts(np.array([0.5, 0.5]), ident_matrices(1), 0)


def test_round_trip_recovers_truth():
    mats = q_matrices(4)
    probs = np.full(16, 1 / 16)
    cv = synthesize_counts(probs, mats, shots=10**6, seed=5)
    out = correct_counts(cv, mats)
    assert np.abs(out.probabilities - probs).sum() < 0.01
    assert out.clipped_mass == 0.0


def test_round_trip_error_shrinks_with_shots():
    mats = q_matrices(3)
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.full(8, 5.0))
    errs = []
    for shots in (10**4, 10**6):
        cv = synthesize_counts(probs, mats, shots=shots, seed=13)
        errs.append(np.abs(correct_counts(cv, mats).probabilities - probs).sum())
    assert errs[1] < errs[0]


def test_depolarized_fidelity_closed_form():
    assert depolarized_fidelity(0.0, 1.0, 3) == 1.0
    assert depolarized_fidelity(0.2, 1.0, 2) == pytest.approx(0.8 + 0.2 / 4)


def test_protocol_fidelity_noiseless():
    state = canonical_ghz(2, 2)
    fid = protocol_fidelity_under_noise(state, ident_matrices(2), 0.0,
                                        shots=10**6, seed=2)
    assert abs(fid - 1.0) < 0.01


def test_protocol_fidelity_matches_depolarizing_oracle():
    state = canonical_ghz(2, 3)
    for p in (0.02, 0.05, 0.1):
        fid = protocol_fidelity_under_noise(state, q_matrices(3), p,
                                            shots=10**6, seed=4)
        assert abs(fid - depolarized_fidelity(p, 1.0, 3)) < 0.02


def test_protocol_fidelity_monotone_in_p():
    state = canonical_ghz(2, 3)
    fids = [protocol_fidelity_under_noise(state, q_matrices(3), p,
                                          shots=10**6, seed=6)
            for p in (0.0, 0.05, 0.1)]
    assert fids[0] >= fids[1] >= fids[2]


def test_protocol_fidelity_on_swap_output():
    branch = run_protocol(ProtocolSpec(ProtocolKind.BELL_SWAP_2D)).branches[0]
    corrected = branch.correction.apply_to(branch.post)
    fid = protocol_fidelity_under_noise(corrected, ident_matrices(2), 0.0,
                                        shots=10**6, seed=9,
                                        target=canonical_ghz(2, 2))
    assert abs(fid - 1.0) < 0.01


def test_protocol_fidelity_accepts_protocol_result():
    result = run_protocol(ProtocolSpec(ProtocolKind.GHZ_SWAP_2D))
    fid = protocol_fidelity_under_noise(result, ident_matrices(3), 0.0,
                                        shots=10**6, seed=10,
                                        target=canonical_ghz(2, 3))
    assert abs(fid - 1.0) < 0.01


def test_protocol_fidelity_rejects_qudits():
    with pytest.raises(ValueError):
        protocol_fidelity_under_noise(canonical_ghz(3, 2), ident_matrices(2),
                                      0.0, shots=10)


@pytest.mark.parametrize("mapping, named", [
    ({"00": 9223372036854775808, "11": 5}, "count 9223372036854775808 for '00'"),
    ({"00": 9223372036854775807, "11": 5}, "total shots 9223372036854775812"),
    ({"00": -9223372036854775809, "11": 5}, "count -9223372036854775809 for '00'")])
def test_counts_beyond_int64_are_refused_by_name(mapping, named):
    # summed as Python ints: no OverflowError and no wrapped negative total
    with pytest.raises(ValueError, match=f"{named} is beyond the int64 range"):
        CountVector.from_dict(mapping)


def test_counts_up_to_the_int64_edge_are_kept():
    assert CountVector.from_dict({"00": 9223372036854775806, "11": 1}).total == 2**63 - 1


@pytest.mark.parametrize("counts, named", [
    (np.array([2**62, 2**62]), "total shots 9223372036854775808"),
    ([2**63, 1], "a count"),
    ([-2**63 - 1, 3], "a count")])
def test_count_vectors_beyond_int64_are_refused_by_name(counts, named):
    # built directly: the total is summed as Python ints, so it cannot wrap
    with pytest.raises(ValueError, match=f"{named} is beyond the int64 range"):
        CountVector(1, counts)


@pytest.mark.parametrize("counts, named", [
    ([1.5, 2.7], "count 1.5"), ([3, float("nan")], "count nan"),
    (np.array([True, False]), "count True"), (np.array(["1", "2"]), "count '1'")])
def test_count_vectors_refuse_counts_that_are_not_integers(counts, named):
    # built directly: no cast truncates a fraction or turns a bool into a count
    with pytest.raises(ValueError, match=f"{named} is not an integer"):
        CountVector(1, counts)


def test_count_vectors_keep_whole_number_floats():
    assert CountVector(1, [2.0, 3.0]).counts.tolist() == [2, 3]


@pytest.mark.parametrize("counts, named", [
    (np.array([2**63, 1], dtype=np.uint64), "9223372036854775808"),
    (np.array([1.0, 1e19]), "1e\\+19")])
def test_count_vectors_beyond_int64_name_the_count(counts, named):
    # no cast wraps 2^63 round to a negative count
    with pytest.raises(ValueError, match=f"beyond the int64 range: {named}"):
        CountVector(1, counts)



GHZ2 = canonical_ghz(2, 2)
BELL_PROBS = np.array([0.5, 0, 0, 0.5])
BAD_READOUT_CALLS = [
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, 2.5),
     "shots 2.5 is not an integer"),
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, True),
     "shots True is not an integer"),
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, "5"),
     "shots '5' is not an integer"),
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, 5, seed=1.5),
     "seed 1.5 is not an integer"),
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, 5, seed=-1),
     "seed -1 is negative"),
    ("synthesize_counts", lambda m: synthesize_counts(BELL_PROBS, m, 2**63),
     "total shots 9223372036854775808 is beyond the int64 range"),
    ("protocol_fidelity_under_noise",
     lambda m: protocol_fidelity_under_noise(GHZ2, m, 0.1, shots=2.5),
     "shots 2.5 is not an integer"),
    ("protocol_fidelity_under_noise",
     lambda m: protocol_fidelity_under_noise(GHZ2, m, 0.1, shots=2**63),
     "total shots 9223372036854775808 is beyond the int64 range"),
    ("protocol_fidelity_under_noise",
     lambda m: protocol_fidelity_under_noise(GHZ2, m, "0.1", shots=5),
     "depolarizing strength '0.1' is not a real number"),
    ("transfer_matrix", lambda m: transfer_matrix(True, 0.9), "f0 True is not a real number"),
    ("transfer_matrix", lambda m: transfer_matrix(None, 0.9), "f0 None is not a real number"),
    ("transfer_matrix", lambda m: transfer_matrix(0.9, "0.9"), "f1 '0.9' is not a real number"),
    ("CountVector", lambda m: CountVector(2.0, np.array([1, 0, 0, 1])),
     "n_qubits 2.0 is not an integer"),
    ("CountVector", lambda m: CountVector(True, np.array([1, 0])),
     "n_qubits True is not an integer"),
]


@pytest.mark.parametrize("call, refusal", [case[1:] for case in BAD_READOUT_CALLS],
                         ids=[f"{name}: {refusal}" for name, _, refusal in BAD_READOUT_CALLS])
def test_malformed_readout_inputs_are_refused_before_any_draw(monkeypatch, call, refusal):
    mats = q_matrices(2)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(ValueError, match=refusal):
        call(mats)
    monkeypatch.undo()
    # numpy numbers are counts, seeds and fidelities
    counts = synthesize_counts(BELL_PROBS, mats, np.int64(50), seed=np.int64(3))
    assert counts.to_dict() == synthesize_counts(BELL_PROBS, mats, 50, seed=3).to_dict()
    assert CountVector(np.int64(2), counts.counts).to_dict() == counts.to_dict()
    assert transfer_matrix(np.float64(0.9), np.float32(0.95), STOCHASTIC).f0 == 0.9
