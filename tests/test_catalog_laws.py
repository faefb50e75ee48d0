"""The catalog kinds whose laws are read off their circuits, against the dense run.

bell-swap-d, the qudit GHZ swap, multi-coin and parallel merges,
GHZ-from-Bell-pairs and both triangle merges are qudit Clifford circuits on
canonical inputs.  ``protocols.circuit`` writes each one's law next to its
circuit, and ``run_protocol`` enumerates it and builds no register: d^j
outcomes in product order, each at probability d^-j and fidelity 1, with
``post`` built on read from the d amplitudes of the law's GHZ frame.

The reference is the dense scorer, ``protocols._corrected``, whose branches
and residuals are ``run_stages``' bit for bit (``test_block_scoring``).  Every
law spec of the benchmark grid and the d = 4, 6 and 7 specs under the cap must
give the same outcomes in the same order, equal correction labels and global
phases, probabilities exactly d^-j and within 1e-12 of the dense ones, and
residuals within 1e-12.

``run_protocol`` reads each law from a table compiled once per circuit shape
(``protocols._law_table``).  Against the per-leaf loop it replaced, the
circuit's rule and closed correction run on every outcome (``rule_path``),
the same specs must give the same outcomes, correction objects, Bell labels,
residual bytes and JSON, with the shape cache cleared before each run and
with it warm; and no two runs may share a record or a residual.
"""

import dataclasses
import itertools
import re
from functools import partial

import numpy as np
import pytest

from walknet import protocols
from walknet.protocols import ProtocolKind as K
from walknet.protocols import (
    BranchResult,
    ProtocolResult,
    ProtocolSpec,
    correction_for,
    run_protocol,
)
from walknet.qudit import SizeCapError, canonical_bell, fidelity

from dense_reference import forbid_register, leaves, workloads

TOL = 1e-12
LAW_KINDS = {K.BELL_SWAP_D, K.GHZ_SWAP_D, K.GHZ_MULTI_COIN_D, K.GHZ_PARALLEL_D,
             K.GHZ_FROM_BELLS_D, K.TRIANGLE_MERGE_D, K.TRIANGLE_MERGE_2D}


def _has_law(spec) -> bool:
    return protocols.circuit(spec)[3] is not None


def composite_specs():
    """The law kinds at d = 4, 6 and 7: eight random Bell labels each, and
    the GHZ sizes of the benchmark grid whose every party fits under the cap
    (``workloads._fits``), as the grid itself picks them."""
    specs, fits = [], workloads._fits
    for d in (4, 6, 7):
        rng = np.random.default_rng(d)
        specs += [ProtocolSpec(K.BELL_SWAP_D, d=d, bell_labels=tuple(rng.integers(d, size=4)))
                  for _ in range(8)]
        specs += [ProtocolSpec(K.GHZ_SWAP_D, d=d), ProtocolSpec(K.TRIANGLE_MERGE_D, d=d)]
        for m, n in itertools.product(range(2, 6), range(2, 6)):
            if fits(d, m + n):
                specs.append(ProtocolSpec(K.GHZ_MULTI_COIN_D, d=d, m=m, n=n))
                specs += [ProtocolSpec(K.GHZ_PARALLEL_D, d=d, m=m, n=n, k=k, retain_coins=retain)
                          for k in range(1, min(m, n)) for retain in (False, True)]
        specs += [ProtocolSpec(K.GHZ_FROM_BELLS_D, d=d, bells=b)
                  for b in range(1, 9) if fits(d, 2 * (b + 1))]
    return specs


GRID = [spec for spec in workloads.protocol_grid(small=False) if _has_law(spec)]
COMPOSITE = composite_specs()


def test_the_law_kinds_are_the_seven():
    assert len(GRID) == 964 and {spec.kind for spec in GRID} == LAW_KINDS
    assert {spec.kind for spec in COMPOSITE} == LAW_KINDS - {K.TRIANGLE_MERGE_2D}
    assert {spec.d for spec in COMPOSITE} == {4, 6, 7}
    assert not any(_has_law(spec) for spec in workloads.protocol_grid(small=False)
                   if spec.kind not in LAW_KINDS)


def assert_law_is_the_dense_run(spec):
    stages, outputs, closed, (j, _) = protocols.circuit(spec)
    result = run_protocol(spec)
    want = list(leaves(stages, outputs, closed))
    assert [b.outcome for b in result.branches] == [leaf[0] for leaf in want]
    for b, (values, p, state, corr, fid) in zip(result.branches, want):
        assert b.correction.label == corr.label
        assert b.correction.global_phase == corr.global_phase
        assert b.probability == spec.d ** -j and abs(b.probability - p) <= TOL
        assert b.fidelity == 1.0 and abs(fid - 1) <= TOL
        assert "post" not in vars(b)
        assert b.post.n == state.n and np.abs(b.post.amps - state.amps).max() <= TOL
        if spec.kind is not K.BELL_SWAP_D:
            assert b.bell_label is None and b.label_fidelity is None
            continue
        label = protocols._bell_label(spec, values)
        assert b.bell_label == label and all(type(x) is int for x in label)
        assert b.label_fidelity == 1.0
        assert abs(b.label_fidelity - fidelity(state, canonical_bell(spec.d, *label))) <= TOL


@pytest.mark.parametrize("block", range(8))
def test_grid_laws_are_the_dense_run(block):
    for spec in GRID[block::8]:
        assert_law_is_the_dense_run(spec)


@pytest.mark.parametrize("block", range(4))
def test_composite_d_laws_are_the_dense_run(block):
    assert len(COMPOSITE) == 204
    for spec in COMPOSITE[block::4]:
        assert_law_is_the_dense_run(spec)


@pytest.mark.parametrize("kind, params", [
    (K.GHZ_PARALLEL_D, {"d": 3, "m": 3, "n": 4, "k": 2}),
    (K.GHZ_FROM_BELLS_D, {"d": 3, "bells": 2}),
    (K.GHZ_MULTI_COIN_D, {"d": 3, "m": 3, "n": 2}),
], ids=["parallel", "from-bells", "multi-coin"])
def test_numpy_counts_give_the_same_law(kind, params):
    # a law's j comes from the spec's counts, which may be numpy integers
    want = run_protocol(ProtocolSpec(kind, **params)).to_json()
    typed = {name: np.int64(v) for name, v in params.items()}
    assert run_protocol(ProtocolSpec(kind, **typed)).to_json() == want


ONE_SPEC_PER_LAW = [
    ProtocolSpec(K.BELL_SWAP_D, d=5, bell_labels=(4, 3, 2, 1)),
    ProtocolSpec(K.GHZ_SWAP_D, d=5),
    ProtocolSpec(K.GHZ_MULTI_COIN_D, d=5, m=5, n=5),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=3, n=4, k=2),
    ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=3, n=4, k=2, retain_coins=True),
    ProtocolSpec(K.GHZ_FROM_BELLS_D, d=2, bells=8),
    ProtocolSpec(K.TRIANGLE_MERGE_D, d=7),
    ProtocolSpec(K.TRIANGLE_MERGE_2D),
]


def _law_id(spec):
    return spec.kind.value + ("-retained" if spec.retain_coins else "")


@pytest.mark.parametrize("spec", ONE_SPEC_PER_LAW, ids=_law_id)
def test_law_kinds_build_no_register(monkeypatch, spec):
    forbid_register(monkeypatch)
    protocols._corrections.cache_clear()
    result = run_protocol(spec)
    assert result.all_recovered() and result.branches[-1].post.n == len(result.output_labels)
    for b in result.branches[::7]:
        assert correction_for(spec.kind, spec.d, b.outcome, spec) is b.correction


@pytest.mark.parametrize("spec", ONE_SPEC_PER_LAW, ids=_law_id)
def test_a_law_kind_lookup_runs_nothing(monkeypatch, spec):
    # the lookup reads the law: the outcome's free readouts give it back, and
    # the closed rule's correction is the one run_protocol applies; no run, and
    # no per-spec table is kept
    branches = run_protocol(spec).branches
    protocols._corrections.cache_clear()
    monkeypatch.setattr(protocols, "run_protocol", lambda *a: pytest.fail("ran the protocol"))
    forbid_register(monkeypatch)
    for b in branches[::5]:
        assert correction_for(spec.kind, spec.d, b.outcome, spec) is b.correction
    assert protocols._corrections.cache_info().currsize == 0


@pytest.mark.parametrize("spec", workloads.LOOKUP_SPECS, ids=lambda spec: spec.kind.value)
def test_a_warm_lookup_builds_no_circuit(monkeypatch, spec):
    # the benchmark's lookups, one spec per kind: a second lookup reads the first's
    # rule and law, or kept table, so it builds no stage and still refuses a wrong outcome
    outcome = run_protocol(spec).branches[-1].outcome
    first = correction_for(spec.kind, spec.d, outcome, spec)
    monkeypatch.setattr(protocols, "Stage", lambda *a, **kw: pytest.fail("built a stage"))
    assert correction_for(spec.kind, spec.d, outcome, spec) is first
    with pytest.raises(ValueError, match="zero probability"):
        correction_for(spec.kind, spec.d, outcome + (0,), spec)


@pytest.mark.parametrize("spec, refusal", [
    (ProtocolSpec(K.TRIANGLE_MERGE_D, d=9), "state of 7 sites at d=9 exceeds the size cap"),
    (ProtocolSpec(K.GHZ_FROM_BELLS_D, d=3, bells=8),
     "state of 18 sites at d=3 exceeds the size cap"),
], ids=["triangle-d9", "from-bells-d3-8"])
def test_over_cap_law_kinds_are_still_refused(monkeypatch, spec, refusal):
    # the law path plans the circuit first, so the dense run's cap still applies
    forbid_register(monkeypatch)
    for _ in range(2):   # a refused shape is not kept: the second run is refused again
        with pytest.raises(SizeCapError, match=re.escape(refusal)):
            run_protocol(spec)


def rule_path(spec) -> ProtocolResult:
    """The per-leaf reference: ``circuit``'s rule and closed correction run
    on each z in Z_d^j, in product order, each record built by its ``__init__``."""
    stages, outputs, closed, (j, rule) = protocols.circuit(spec)
    d, n = int(spec.d), len(outputs)
    result = ProtocolResult(spec, tuple(t for stage in stages for t in stage.targets), outputs)
    for z in itertools.product(range(d), repeat=j):
        outcome, a = rule(z)
        corr = closed(outcome)
        bell = (protocols._bell_label(spec, outcome), 1.0) if spec.kind is K.BELL_SWAP_D else ()
        result.branches.append(BranchResult(
            outcome, d**-j, partial(protocols._frame_residual, d, n, corr, a), corr, 1.0, *bell))
    return result


@pytest.mark.parametrize("block", range(4))
def test_the_shape_table_is_the_per_leaf_rule(block):
    # each spec runs with its shape's table cleared (cold), then kept (warm)
    for spec in (GRID + COMPOSITE)[block::4]:
        want = rule_path(spec)
        protocols._law_table.cache_clear()
        for got in (run_protocol(spec), run_protocol(spec)):
            assert (got.measured, got.output_labels) == (want.measured, want.output_labels)
            assert [b.outcome for b in got.branches] == [b.outcome for b in want.branches]
            assert all(b == w and b.correction is w.correction
                       for b, w in zip(got.branches, want.branches))
            assert [b.bell_label for b in got.branches] == [b.bell_label for b in want.branches]
            # one residual function on equal arguments gives equal bytes; read every 5th
            assert all(b.residual.func is w.residual.func and b.residual.args == w.residual.args
                       for b, w in zip(got.branches, want.branches))
            assert all(b.post.amps.tobytes() == w.post.amps.tobytes()
                       for b, w in zip(got.branches[::5], want.branches[::5]))
            assert got.to_json() == want.to_json()
        assert protocols._law_table.cache_info()[:2] == (1, 1)   # (hits, misses)


def test_the_d5_bell_swaps_share_one_table():
    # a Bell label moves only the correction and the residual phase
    specs = [spec for spec in GRID if spec.kind is K.BELL_SWAP_D and spec.d == 5]
    assert len(specs) == 625
    protocols._law_table.cache_clear()
    for spec in specs:
        run_protocol(spec)
    info = protocols._law_table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 624)


@pytest.mark.parametrize("spec", ONE_SPEC_PER_LAW, ids=_law_id)
def test_two_runs_share_no_record(spec):
    first, second = run_protocol(spec), run_protocol(spec)
    assert first.branches is not second.branches
    for a, b in zip(first.branches, second.branches):
        assert a == b and a is not b and a.residual is not b.residual
    for a, b in zip(first.branches[::50], second.branches[::50]):
        assert a.post is not b.post and a.post.amps is not b.post.amps
    want = second.branches[-1].post.amps.copy()
    first.branches[-1].post.amps[:] = 7
    assert second.branches[-1].post.amps.tobytes() == want.tobytes()
    assert run_protocol(spec).branches[-1].post.amps.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [ONE_SPEC_PER_LAW[0], ONE_SPEC_PER_LAW[6],
                                  ProtocolSpec(K.MERGE_COMBINED, m=4, n=3, k=3, l=2)],
                         ids=_law_id)
def test_a_record_is_a_frozen_dataclass(spec):
    b = run_protocol(spec).branches[5]
    fields = [f.name for f in dataclasses.fields(BranchResult)]
    assert list(vars(b)) == fields
    assert b == BranchResult(**{name: getattr(b, name) for name in fields})
    c = dataclasses.replace(b, fidelity=0.5)
    assert c.fidelity == 0.5 and c.fidelity != b.fidelity
    assert (c.outcome, c.correction, c.bell_label) == (b.outcome, b.correction, b.bell_label)
    assert c.post.amps.tobytes() == b.post.amps.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.fidelity = 0.5


def test_list_labels_and_numpy_fields_are_accepted():
    # the shape cache's key holds neither the Bell labels nor a list
    spec = ProtocolSpec(K.BELL_SWAP_D, d=5, bell_labels=(4, 3, 2, 1))
    want = run_protocol(spec)
    for other in (dataclasses.replace(spec, bell_labels=[4, 3, 2, 1]),
                  dataclasses.replace(spec, d=np.int64(5),
                                      bell_labels=[np.int64(x) for x in (4, 3, 2, 1)])):
        got = run_protocol(other)
        assert got.to_json() == want.to_json()
        assert [b.bell_label for b in got.branches] == [b.bell_label for b in want.branches]
        assert all(type(x) is int for b in got.branches for x in b.bell_label)
        assert correction_for(K.BELL_SWAP_D, other.d, (1, 2), other) is want.branches[7].correction
    spec = ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=3, n=4, k=2, retain_coins=True)
    typed = ProtocolSpec(K.GHZ_PARALLEL_D, d=np.int64(3), m=np.int64(3), n=np.int64(4),
                         k=np.int32(2), bell_labels=[0, 0, 0, 0], retain_coins=np.bool_(True))
    assert run_protocol(typed).to_json() == run_protocol(spec).to_json()
