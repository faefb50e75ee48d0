"""Core state/operator behavior, including frozen oracle values."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from walknet.protocols import Stage, run_stages
from walknet.qudit import (
    Basis,
    OperatorMatrix,
    QuditState,
    SizeCapError,
    apply,
    basis_state,
    canonical_bell,
    canonical_ghz,
    fidelity,
    fourier_op,
    identity_op,
    label_shift_op,
    measure_all_branches,
    pauli_ops,
    pauli_x,
    pauli_z,
    shift_op,
    tensor,
)

from dense_reference import dense_apply, random_monomial, random_unitary


def test_basis_state_index_encoding():
    s = basis_state(2, [0, 0])
    assert s.amps[0] == 1.0 and np.count_nonzero(s.amps) == 1
    s = basis_state(3, [2, 1])
    assert s.amps[7] == 1.0 and np.count_nonzero(s.amps) == 1


def test_basis_state_value_out_of_range():
    with pytest.raises(ValueError):
        basis_state(2, [0, 2])


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        basis_state(2, [0] * 23)


def test_canonical_bell_00():
    s = canonical_bell(2, 0, 0)
    expect = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(s.amps, expect)


def test_canonical_bell_11_oracle():
    # direct substitution: (1/sqrt2)(w^0 |0,0-1> + w^1 |1,1-1>) = (|01> - |10>)/sqrt2
    s = canonical_bell(2, 1, 1)
    expect = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(s.amps, expect)
    assert abs(np.vdot(canonical_bell(2, 0, 0).amps, s.amps)) < 1e-12


def test_canonical_bell_qutrit_oracle():
    w = np.exp(2j * np.pi / 3)
    s = canonical_bell(3, 1, 0)
    expect = np.zeros(9, dtype=complex)
    expect[0], expect[4], expect[8] = 1, w, w**2
    assert np.allclose(s.amps, expect / np.sqrt(3))


def test_bell_basis_orthonormal():
    for d in (2, 3):
        vecs = [canonical_bell(d, m, n).amps for m in range(d) for n in range(d)]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)


def test_canonical_ghz():
    s = canonical_ghz(2, 3)
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / np.sqrt(2)
    assert np.allclose(s.amps, expect)
    assert np.allclose(canonical_ghz(2, 2).amps, canonical_bell(2, 0, 0).amps)
    s3 = canonical_ghz(3, 3)
    idx = np.nonzero(s3.amps)[0]
    assert list(idx) == [0, 13, 26]


@pytest.mark.parametrize("d", [1, 0])
def test_canonical_ghz_refuses_d_below_two(d):
    # refused before the support step divides by d - 1
    with pytest.raises(ValueError, match="d >= 2"):
        canonical_ghz(d, 3)


def test_fourier_op_is_hadamard_at_d2():
    f = fourier_op(2)
    assert np.allclose(f.mat, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_fourier_unitary_and_uniform_column():
    for d in (2, 3, 5, 7):
        f = fourier_op(d)
        assert np.allclose(f.mat @ f.mat.conj().T, np.eye(d), atol=1e-12)
        out = apply(basis_state(d, [0]), f, [0])
        assert np.allclose(out.amps, np.full(d, 1 / np.sqrt(d)))


def test_shift_op_is_cnot_at_d2():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(shift_op(2).mat, cnot)


def test_shift_op_permutation_and_d3_action():
    s = shift_op(3)
    assert np.all((s.mat == 0) | (s.mat == 1))
    assert np.all(s.mat.sum(axis=0) == 1) and np.all(s.mat.sum(axis=1) == 1)
    out = apply(basis_state(3, [1, 0]), s, [0, 1])
    assert out.amps[1 * 3 + 2] == 1.0  # |1>|0> -> |1>|2>


def test_pauli_ops_d2_standard():
    x, z = pauli_ops(2)
    assert np.allclose(x.mat, [[0, 1], [1, 0]])
    assert np.allclose(z.mat, [[1, 0], [0, -1]])


def test_label_shift_identity():
    for d in (2, 3):
        assert np.allclose(label_shift_op(d, 0, 0).mat, np.eye(d))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_label_shift_recovers_reference_bell(d):
    target = canonical_bell(d, 0, 0)
    for m in range(d):
        for n in range(d):
            fixed = apply(canonical_bell(d, m, n), label_shift_op(d, m, n), [0])
            assert fidelity(fixed, target) >= 1 - 1e-10


def test_apply_identity_and_x():
    s = basis_state(2, [0, 0])
    assert np.allclose(apply(s, identity_op(2), [1]).amps, s.amps)
    x, _ = pauli_ops(2)
    assert np.allclose(apply(s, x, [0]).amps, basis_state(2, [1, 0]).amps)


def test_apply_then_dagger_roundtrip():
    rng = np.random.default_rng(7)
    for d, n in ((2, 4), (3, 3)):
        amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        s = QuditState(d, n, amps / np.linalg.norm(amps))
        f = fourier_op(d)
        back = apply(apply(s, f, [1]), f.dagger(), [1])
        assert np.allclose(back.amps, s.amps, atol=1e-10)


# op sites on a 4-site state: in and out of order, adjacent and apart, first and last
SITES = {1: [[2], [0], [3]],
         2: [[3, 1], [0, 2], [2, 0], [0, 3], [1, 2]],
         3: [[0, 1, 2], [3, 0, 2], [2, 3, 1], [1, 3, 0], [3, 2, 1]]}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_monomial_ops_gather_as_the_dense_matrix_multiplies(d):
    rng = np.random.default_rng(d)
    randoms = [random_monomial(d, k, rng, phased) for k in (1, 2, 3) for phased in (0, 1)]
    for op in (identity_op(d), *pauli_ops(d), label_shift_op(d, 1, d - 1),
               label_shift_op(d, d - 1, 1), shift_op(d), *randoms):
        assert op.monomial is not None
        for sites in SITES[op.arity]:
            amps = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
            s = QuditState(d, 4, amps / np.linalg.norm(amps))
            got = apply(s, op, sites).amps
            assert np.abs(got - dense_apply(s, op, sites)).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_two_site_op_that_is_no_permutation_multiplies_as_the_dense_matrix(d):
    rng = np.random.default_rng(d)
    op = OperatorMatrix(d, 2, random_unitary(d * d, rng))
    assert op.monomial is None
    amps = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
    s = QuditState(d, 4, amps / np.linalg.norm(amps))
    for sites in SITES[2]:
        assert np.abs(apply(s, op, sites).amps - dense_apply(s, op, sites)).max() <= 1e-13


def test_the_shift_allocates_one_state_and_its_index_table():
    # 2^20 amplitudes: a shift across the whole register gathers through an
    # index table of 2^20 entries, too many to cache; a near one through 8
    state = canonical_ghz(2, 20)
    tracemalloc.start()
    try:
        for sites in ([0, 19], [19, 0], [7, 9], [12, 11]):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = apply(state, shift_op(2), sites)
            peak = tracemalloc.get_traced_memory()[1] - before
            table = 2 ** (max(sites) - min(sites) + 1) * np.dtype(np.intp).itemsize
            assert peak <= state.amps.nbytes + table + 2**14
            assert np.count_nonzero(out.amps) == 2
            del out
    finally:
        tracemalloc.stop()


def test_apply_validation_errors():
    s = basis_state(2, [0, 0])
    x, _ = pauli_ops(2)
    with pytest.raises(ValueError):
        apply(s, x, [0, 1])
    with pytest.raises(ValueError):
        apply(s, shift_op(2), [1, 1])
    with pytest.raises(ValueError):
        apply(s, shift_op(3), [0, 1])


def test_tensor_products():
    b = canonical_bell(2, 0, 0)
    four = tensor(b, b)
    # one-step check of the amplitude layout: |0000>,|0011>,|1100>,|1111> at 1/2
    assert np.allclose(four.amps[[0, 3, 12, 15]], 0.5)
    assert np.count_nonzero(np.abs(four.amps) > 1e-12) == 4
    s01 = tensor(basis_state(2, [0]), basis_state(2, [1]))
    assert np.allclose(s01.amps, basis_state(2, [0, 1]).amps)
    with pytest.raises(ValueError):
        tensor(basis_state(2, [0]), basis_state(3, [0]))


def test_tensor_of_normalized_states_is_normalized_and_checks_d_and_cap():
    rng = np.random.default_rng(7)
    for d, na, nb in [(2, 1, 1), (2, 3, 4), (3, 2, 3), (5, 1, 2), (7, 2, 1)]:
        a, b = (rng.normal(size=d**n) + 1j * rng.normal(size=d**n) for n in (na, nb))
        prod = tensor(QuditState(d, na, a / np.linalg.norm(a)),
                      QuditState(d, nb, b / np.linalg.norm(b)))
        assert (prod.d, prod.n) == (d, na + nb)
        assert abs(np.linalg.norm(prod.amps) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="local dimensions differ"):
        tensor(basis_state(2, [0]), basis_state(3, [0]))
    big = basis_state(2, [0] * 12)  # 2^24 amplitudes, over the 2^22 cap
    with pytest.raises(SizeCapError):
        tensor(big, big)


def test_measure_bell_computational():
    branches = measure_all_branches(canonical_bell(2, 0, 0), [(1, Basis.COMPUTATIONAL)])
    assert len(branches) == 2
    for (val,), p, post in zip(branches.values.tolist(), branches.probs, branches.posts):
        assert p == pytest.approx(0.5)
        expect = basis_state(2, [val])
        assert fidelity(QuditState(2, branches.n, post), expect) == pytest.approx(1.0)


def test_measure_product_state_single_branch():
    s = basis_state(3, [2, 1, 0])
    branches = measure_all_branches(s, [(1, Basis.COMPUTATIONAL)])
    assert len(branches) == 1
    assert branches.probs[0] == pytest.approx(1.0)
    assert branches.values[0, 0] == 1
    assert np.allclose(branches.posts[0], basis_state(3, [2, 0]).amps)


def test_fourier_basis_labels_d2():
    plus = QuditState(2, 1, np.array([1, 1]) / np.sqrt(2))
    minus = QuditState(2, 1, np.array([1, -1]) / np.sqrt(2))
    b = measure_all_branches(plus, [(0, Basis.FOURIER)])
    assert len(b) == 1 and b.values[0, 0] == 0 and b.posts is None
    b = measure_all_branches(minus, [(0, Basis.FOURIER)])
    assert len(b) == 1 and b.values[0, 0] == 1


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for d, n in ((2, 5), (3, 4)):
        amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        s = QuditState(d, n, amps / np.linalg.norm(amps))
        branches = measure_all_branches(
            s, [(0, Basis.FOURIER), (2, Basis.COMPUTATIONAL)]
        )
        assert sum(branches.probs) == pytest.approx(1.0, abs=1e-9)


def test_measure_empty_targets_rejected():
    with pytest.raises(ValueError):
        measure_all_branches(canonical_bell(2, 0, 0), [])


@pytest.mark.parametrize("sites", [[1], [2, 0], [0, 1, 2]])
def test_outcomes_are_python_ints(sites):
    # an np.int64 value would break json.dumps, and with it ProtocolResult.to_json:
    # the outcomes and probabilities that run_stages yields are Python scalars
    state = canonical_ghz(3, 3)
    targets = [(s, Basis.FOURIER if s == 0 else Basis.COMPUTATIONAL) for s in sites]
    block = measure_all_branches(state, targets)
    labels = [f"s{i}" for i in range(3)]
    stage = Stage(add=((state, tuple(labels)),),
                  targets=tuple((labels[s], basis) for s, basis in targets))
    outputs = tuple(lab for i, lab in enumerate(labels) if i not in sites)
    assert block.values.shape == (len(block), len(sites))
    assert (block.posts is None) == (len(sites) == 3)
    for outcome, probability, post in run_stages([stage], outputs):
        assert type(outcome) is tuple and len(outcome) == len(sites)
        assert all(type(v) is int for v in outcome)
        assert type(probability) is float
        assert json.loads(json.dumps(outcome)) == list(outcome)
        assert (post is None) == (len(sites) == 3)


@pytest.mark.parametrize("targets", [
    [],
    [(0, Basis.COMPUTATIONAL), (0, Basis.FOURIER)],
    [(2, Basis.COMPUTATIONAL)],
])
def test_measure_validation(targets):
    with pytest.raises(ValueError):
        measure_all_branches(canonical_bell(2, 0, 0), targets)


def test_fidelity_properties():
    s = canonical_ghz(3, 2)
    assert fidelity(s, s) == pytest.approx(1.0)
    phased = QuditState(3, 2, np.exp(0.7j) * s.amps)
    assert fidelity(s, phased) == pytest.approx(1.0)
    assert fidelity(basis_state(2, [0, 0]), canonical_bell(2, 0, 0)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fidelity(basis_state(2, [0]), basis_state(2, [0, 0]))


def test_norm_preserved_under_random_circuits():
    rng = np.random.default_rng(3)
    s = canonical_ghz(3, 4)
    f = fourier_op(3)
    sh = shift_op(3)
    for _ in range(30):
        if rng.random() < 0.5:
            s = apply(s, f, [int(rng.integers(4))])
        else:
            a, b = rng.permutation(4)[:2]
            s = apply(s, sh, [int(a), int(b)])
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-9


def test_operator_unitarity_enforced():
    with pytest.raises(ValueError):
        OperatorMatrix(2, 1, np.array([[1, 0], [0, 2]], dtype=complex))


def test_state_json_roundtrip():
    s = canonical_bell(3, 2, 1)
    back = QuditState.from_json(3, 2, s.to_json())
    assert np.allclose(back.amps, s.amps)


def test_canonical_states_are_shared_and_read_only():
    for make, args in ((canonical_bell, (3, 1, 2)), (canonical_ghz, (3, 4))):
        state = make(*args)
        assert make(*args) is state
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.amps *= 2
    # bad arguments raise on every call, not only the first
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            canonical_bell(3, 3, 0)
        with pytest.raises(SizeCapError):
            canonical_ghz(2, 23)
        with pytest.raises(ValueError, match="at least 2"):
            canonical_ghz(3, 1)


def _measured_cases():
    """(state, targets): leading computational targets, whose outcome rows
    are a view of the state's amplitudes, with every row kept and with
    pruned rows, plus Fourier and trailing targets."""
    rng = np.random.default_rng(5)
    amps = rng.normal(size=27) + 1j * rng.normal(size=27)
    dense = QuditState(3, 3, amps / np.linalg.norm(amps))
    c, f = Basis.COMPUTATIONAL, Basis.FOURIER
    yield canonical_ghz(3, 3), [(0, c)]               # every row kept
    yield canonical_ghz(3, 3), [(0, c), (1, c)]       # pruned rows
    yield canonical_bell(2, 0, 0), [(0, c), (1, c)]   # every site measured
    yield dense, [(0, c)]
    yield dense, [(0, c), (1, c), (2, c)]
    yield dense, [(2, f), (0, c)]
    yield basis_state(3, [1, 2, 0]), [(1, c)]


def test_measurement_leaves_the_measured_state_unchanged():
    for state, targets in _measured_cases():
        before = state.amps.copy()
        branches = measure_all_branches(state, targets)
        assert np.array_equal(state.amps, before)
        if branches.posts is not None:
            for post in branches.posts:
                assert abs(np.linalg.norm(post) - 1) < 1e-12
            assert not np.shares_memory(branches.posts, state.amps)


@pytest.mark.parametrize("d, values, refusal", [
    (2, [0, 1.5], "site value 1.5 is not an integer"),
    (2, [True, 0], "site value True is not an integer"),
    (2.0, [0, 1], "d 2.0 is not an integer"),
    (2, ["1"], "site value '1' is not an integer"),
])
def test_basis_state_refuses_non_integers(d, values, refusal):
    with pytest.raises(ValueError, match=refusal):
        basis_state(d, values)
    assert np.array_equal(basis_state(np.int64(3), [np.int32(2), 1]).amps,
                          basis_state(3, [2, 1]).amps)


BAD_CONSTRUCTOR_CALLS = [
    ("canonical_ghz(2.5, 2)", lambda: canonical_ghz(2.5, 2), "d 2.5 is not an integer"),
    ("canonical_ghz(2, 2.0)", lambda: canonical_ghz(2, 2.0), "n_sites 2.0 is not an integer"),
    ("canonical_bell(2.0, 0, 0)", lambda: canonical_bell(2.0, 0, 0), "d 2.0 is not an integer"),
    ("canonical_bell(3, 0.5, 0)", lambda: canonical_bell(3, 0.5, 0), "m 0.5 is not an integer"),
    ("canonical_bell(2, True, 0)", lambda: canonical_bell(2, True, 0),
     "m True is not an integer"),
    ("canonical_bell(1, 0, 0)", lambda: canonical_bell(1, 0, 0), "d must be >= 2"),
    ("fourier_op(2.0)", lambda: fourier_op(2.0), "d 2.0 is not an integer"),
    ("identity_op(2.5)", lambda: identity_op(2.5), "d 2.5 is not an integer"),
    ("identity_op(1)", lambda: identity_op(1), "d must be >= 2"),
    ("shift_op(2.0)", lambda: shift_op(2.0), "d 2.0 is not an integer"),
    ("pauli_z(2.0)", lambda: pauli_z(2.0), "d 2.0 is not an integer"),
    ("pauli_x(1)", lambda: pauli_x(1), "d must be >= 2"),
    ("label_shift_op(3, 0.5, 0)", lambda: label_shift_op(3, 0.5, 0), "m 0.5 is not an integer"),
    ("label_shift_op(3, 0, 0.5)", lambda: label_shift_op(3, 0, 0.5), "n 0.5 is not an integer"),
    ("label_shift_op(1, 0, 0)", lambda: label_shift_op(1, 0, 0), "d must be >= 2"),
]


@pytest.mark.parametrize("call, refusal", [case[1:] for case in BAD_CONSTRUCTOR_CALLS],
                         ids=[name for name, _, _ in BAD_CONSTRUCTOR_CALLS])
def test_constructors_refuse_what_they_would_mangle(call, refusal):
    # cached by argument type, so a float or bool never reads an int's entry
    canonical_ghz(2, 2), canonical_bell(2, 1, 0), canonical_bell(3, 0, 0)
    fourier_op(2), identity_op(2), shift_op(2), label_shift_op(3, 0, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            call()


def test_constructors_take_numpy_integers():
    assert np.array_equal(canonical_bell(np.int64(3), np.int32(1), 2).amps,
                          canonical_bell(3, 1, 2).amps)
    assert np.array_equal(canonical_ghz(np.int64(3), np.int64(2)).amps, canonical_ghz(3, 2).amps)
    assert np.array_equal(label_shift_op(np.int64(3), np.int64(-1), 1).mat,
                          label_shift_op(3, 2, 1).mat)
    assert np.array_equal(identity_op(np.int64(2)).mat, identity_op(2).mat)


def test_norm_check_reads_strided_amplitudes():
    # every other entry of a longer vector: the check reads any 1-D layout
    wide = np.zeros(16, dtype=complex)
    wide[::2] = canonical_ghz(2, 3).amps
    state = QuditState(2, 3, wide[::2])
    assert not state.amps.flags.c_contiguous
    assert fidelity(state, canonical_ghz(2, 3)) == pytest.approx(1, abs=1e-15)
    wide *= np.sqrt(2)
    with pytest.raises(ValueError, match=r"not normalized \(\|norm-1\| = 4.142e-01\)"):
        QuditState(2, 3, wide[::2])
