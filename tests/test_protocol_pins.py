"""Pinned circuits: measured labels, output labels and per-branch corrections.

One instance of every ProtocolKind at d = 2 (and d = 3 where the kind is
defined for it).  Each branch is written "outcome digits:correction label",
in branch order; the 243-branch qutrit triangle merge is pinned by the
sha256 of those lines.  A second sha256 pins "spec | outcome:label:global
phase" lines of every closed-form kind over a small parameter grid.  Only
exact ints and strings are compared.
"""

import hashlib
import itertools

import pytest

from walknet.protocols import ProtocolKind as K
from walknet.protocols import ProtocolSpec, run_protocol

PINS = [
    (ProtocolSpec(K.BELL_SWAP_2D), "2 3", "FC", "1 4",
     "00:X1 | 01:I | 10:Z1X1 | 11:-Z1"),
    (ProtocolSpec(K.GHZ_SWAP_2D), "2 3 4", "FCC", "1 5 6",
     "000:X1 | 001:I | 010:Z1 | 011:X1Z1 | 100:Z1X1 | 101:-Z1 | 110:-I | 111:-X1"),
    (ProtocolSpec(K.MERGE_METHOD_1, m=3, n=3, k=2), "a1 a2 b1", "FCC", "a3 b2 b3",
     "000:X1 | 001:I | 010:Z1 | 011:Z1X1 | 100:-Z1X1 | 101:-Z1 | 110:-I | 111:-X1"),
    (ProtocolSpec(K.MERGE_METHOD_1, m=3, n=2, k=2, retain_coins=True), "a2 b1", "CC",
     "a1 a3 b2", "00:X@1 | 01:X@1 X@2 | 10:X@1 X@2 Z@0 | 11:X@1 Z@0"),
    (ProtocolSpec(K.MERGE_METHOD_2, m=3, n=3, k=2), "a1 a2 b1 b2", "FFCC", "a3 b3",
     "0000:X1 | 0011:I | 0100:-Z1X1 | 0111:-Z1 | 1000:-Z1X1 | 1011:-Z1 | 1100:X1"
     " | 1111:I"),
    (ProtocolSpec(K.MERGE_COMBINED, m=4, n=3, k=3, l=2), "a1 a2 a3 b1 b2", "FFCCC",
     "a4 b3",
     "00000:X@1 | 00011:I | 00101:X@1 Z@0 | 00110:Z@0 | 01000:X@1 Z@0 | 01011:Z@0"
     " | 01101:X@1 | 01110:I | 10000:X@1 Z@0 | 10011:Z@0 | 10101:X@1 | 10110:I"
     " | 11000:X@1 | 11011:I | 11101:X@1 Z@0 | 11110:Z@0"),
    (ProtocolSpec(K.TRIANGLE_MERGE_2D), "q1 q3 q5 q2 q4 q6", "FFFCCC", "a b c",
     "000001:X@1 | 000010:X@1 X@2 | 000100:X@2 | 000111:I | 001001:X@1 Z@0"
     " | 001010:X@1 X@2 Z@0 | 001100:X@2 Z@0 | 001111:Z@0 | 010001:X@1 Z@0"
     " | 010010:X@1 X@2 Z@0 | 010100:X@2 Z@0 | 010111:Z@0 | 011001:X@1"
     " | 011010:X@1 X@2 | 011100:X@2 | 011111:I | 100001:X@1 Z@0"
     " | 100010:X@1 X@2 Z@0 | 100100:X@2 Z@0 | 100111:Z@0 | 101001:X@1"
     " | 101010:X@1 X@2 | 101100:X@2 | 101111:I | 110001:X@1 | 110010:X@1 X@2"
     " | 110100:X@2 | 110111:I | 111001:X@1 Z@0 | 111010:X@1 X@2 Z@0"
     " | 111100:X@2 Z@0 | 111111:Z@0"),
    (ProtocolSpec(K.BELL_SWAP_D, d=2, bell_labels=(1, 0, 1, 1)), "2 3", "FC", "1 4",
     "00:U[0,1]@0 | 01:U[0,0]@0 | 10:U[1,1]@0 | 11:U[1,0]@0"),
    (ProtocolSpec(K.GHZ_PARALLEL_D, d=2, m=3, n=2, k=1), "a1 b1", "FC", "a2 a3 b2",
     "00:I | 01:X@2 | 10:Z@0 | 11:X@2 Z@0"),
    (ProtocolSpec(K.GHZ_SWAP_D, d=2), "2 3 4", "FFC", "1 5 6",
     "000:I | 001:X@1 X@2 | 110:Z@0 | 111:X@1 X@2 Z@0"),
    (ProtocolSpec(K.GHZ_MULTI_COIN_D, d=2, m=3, n=2), "a2 a3 b1", "FFC", "a1 b2",
     "000:I | 001:X@1 | 110:Z@0 | 111:X@1 Z@0"),
    (ProtocolSpec(K.GHZ_FROM_BELLS_D, d=2, bells=2), "2 4 5", "FFC", "1 3 6",
     "000:I | 001:Z@2 | 010:X@1 | 011:X@1 Z@2 | 100:X@0 | 101:X@0 Z@2"
     " | 110:X@0 X@1 | 111:X@0 X@1 Z@2"),
    (ProtocolSpec(K.TRIANGLE_MERGE_D, d=2), "q1 q2 q4 q5 q6 q3", "FCFFCC", "a b c",
     "000000:I | 000011:X@2 | 000100:Z@0 | 000111:X@2 Z@0 | 001000:Z@0"
     " | 001011:X@2 Z@0 | 001100:I | 001111:X@2 | 010001:X@1 | 010010:X@1 X@2"
     " | 010101:X@1 Z@0 | 010110:X@1 X@2 Z@0 | 011001:X@1 Z@0"
     " | 011010:X@1 X@2 Z@0 | 011101:X@1 | 011110:X@1 X@2 | 100000:Z@0"
     " | 100011:X@2 Z@0 | 100100:I | 100111:X@2 | 101000:I | 101011:X@2"
     " | 101100:Z@0 | 101111:X@2 Z@0 | 110001:X@1 Z@0 | 110010:X@1 X@2 Z@0"
     " | 110101:X@1 | 110110:X@1 X@2 | 111001:X@1 | 111010:X@1 X@2"
     " | 111101:X@1 Z@0 | 111110:X@1 X@2 Z@0"),
    (ProtocolSpec(K.BELL_SWAP_D, d=3, bell_labels=(1, 0, 1, 2)), "2 3", "FC", "1 4",
     "00:U[2,2]@0 | 01:U[2,1]@0 | 02:U[2,0]@0 | 10:U[1,2]@0 | 11:U[1,1]@0"
     " | 12:U[1,0]@0 | 20:U[0,2]@0 | 21:U[0,1]@0 | 22:U[0,0]@0"),
    (ProtocolSpec(K.GHZ_PARALLEL_D, d=3, m=3, n=2, k=1), "a1 b1", "FC", "a2 a3 b2",
     "00:I | 01:U[0,1]@2 | 02:U[0,2]@2 | 10:Z^1@0 | 11:U[0,1]@2 Z^1@0"
     " | 12:U[0,2]@2 Z^1@0 | 20:Z^2@0 | 21:U[0,1]@2 Z^2@0 | 22:U[0,2]@2 Z^2@0"),
    (ProtocolSpec(K.GHZ_SWAP_D, d=3), "2 3 4", "FFC", "1 5 6",
     "000:I | 001:U[0,1]@1 U[0,1]@2 | 002:U[0,2]@1 U[0,2]@2 | 110:Z^1@0"
     " | 111:U[0,1]@1 U[0,1]@2 Z^1@0 | 112:U[0,2]@1 U[0,2]@2 Z^1@0 | 220:Z^2@0"
     " | 221:U[0,1]@1 U[0,1]@2 Z^2@0 | 222:U[0,2]@1 U[0,2]@2 Z^2@0"),
    (ProtocolSpec(K.GHZ_MULTI_COIN_D, d=3, m=3, n=2), "a2 a3 b1", "FFC", "a1 b2",
     "000:I | 001:U[0,1]@1 | 002:U[0,2]@1 | 110:Z^1@0 | 111:U[0,1]@1 Z^1@0"
     " | 112:U[0,2]@1 Z^1@0 | 220:Z^2@0 | 221:U[0,1]@1 Z^2@0 | 222:U[0,2]@1 Z^2@0"),
    (ProtocolSpec(K.GHZ_FROM_BELLS_D, d=3, bells=2), "2 4 5", "FFC", "1 3 6",
     "000:I | 001:Z^1@2 | 002:Z^2@2 | 010:U[0,1]@1 | 011:U[0,1]@1 Z^1@2"
     " | 012:U[0,1]@1 Z^2@2 | 020:U[0,2]@1 | 021:U[0,2]@1 Z^1@2"
     " | 022:U[0,2]@1 Z^2@2 | 100:U[0,1]@0 | 101:U[0,1]@0 Z^1@2"
     " | 102:U[0,1]@0 Z^2@2 | 110:U[0,1]@0 U[0,1]@1 | 111:U[0,1]@0 U[0,1]@1 Z^1@2"
     " | 112:U[0,1]@0 U[0,1]@1 Z^2@2 | 120:U[0,1]@0 U[0,2]@1"
     " | 121:U[0,1]@0 U[0,2]@1 Z^1@2 | 122:U[0,1]@0 U[0,2]@1 Z^2@2 | 200:U[0,2]@0"
     " | 201:U[0,2]@0 Z^1@2 | 202:U[0,2]@0 Z^2@2 | 210:U[0,2]@0 U[0,1]@1"
     " | 211:U[0,2]@0 U[0,1]@1 Z^1@2 | 212:U[0,2]@0 U[0,1]@1 Z^2@2"
     " | 220:U[0,2]@0 U[0,2]@1 | 221:U[0,2]@0 U[0,2]@1 Z^1@2"
     " | 222:U[0,2]@0 U[0,2]@1 Z^2@2"),
    (ProtocolSpec(K.TRIANGLE_MERGE_D, d=3), "q1 q2 q4 q5 q6 q3", "FCFFCC", "a b c",
     "243 sha256:59f826b08a6238e2720923343febf9a4f67123850cd7c17bc8140d0a4272febd"),
]


def test_every_kind_is_pinned():
    kinds = {spec.kind for spec, *_ in PINS}
    assert kinds == set(K)
    assert {spec.kind for spec, *_ in PINS if spec.d == 3} == {
        kind for kind in K if kind.value.endswith("-d")}


@pytest.mark.parametrize("spec, measured, bases, outputs, branches", PINS,
                         ids=[f"{p[0].kind.value}-d{p[0].d}" for p in PINS])
def test_circuit_pinned(spec, measured, bases, outputs, branches):
    result = run_protocol(spec)
    assert " ".join(lab for lab, _ in result.measured) == measured
    assert "".join(b.value[0].upper() for _, b in result.measured) == bases
    assert " ".join(result.output_labels) == outputs
    rows = [f"{''.join(map(str, b.outcome))}:{b.correction.label}"
            for b in result.branches]
    if "sha256:" in branches:
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert f"{len(rows)} sha256:{digest}" == branches
    else:
        assert " | ".join(rows) == branches


def _closed_form_grid():
    """Every kind with a closed-form correction over a small grid: d in
    {2, 3, 5} where the kind is defined, m, n in {2, 3, 4} with every k, both
    retain variants of ghz-parallel-d (method 1 and 2 derive their retained
    corrections), 1-3 coin Bell pairs, a few Bell labels and the qutrit
    triangle merge."""
    specs = [ProtocolSpec(K.BELL_SWAP_2D), ProtocolSpec(K.GHZ_SWAP_2D),
             ProtocolSpec(K.TRIANGLE_MERGE_D, d=3)]
    mn = list(itertools.product((2, 3, 4), repeat=2))
    specs += [ProtocolSpec(K.MERGE_METHOD_1, m=m, n=n, k=k) for m, n in mn for k in range(1, m)]
    specs += [ProtocolSpec(K.MERGE_METHOD_2, m=m, n=n, k=k)
              for m, n in mn for k in range(1, min(m, n))]
    labels = {2: [(0, 0, 0, 0), (1, 0, 1, 1)], 5: [(0, 0, 0, 0), (4, 3, 2, 1)],
              3: [(0, 0, 0, 0), (1, 2, 0, 1), (2, 0, 1, 2), (2, 2, 2, 2)]}
    for d in (2, 3, 5):
        specs += [ProtocolSpec(K.GHZ_SWAP_D, d=d)]
        specs += [ProtocolSpec(K.BELL_SWAP_D, d=d, bell_labels=lab) for lab in labels[d]]
        specs += [ProtocolSpec(K.GHZ_FROM_BELLS_D, d=d, bells=bells) for bells in (1, 2, 3)]
        specs += [ProtocolSpec(K.GHZ_MULTI_COIN_D, d=d, m=m, n=n) for m, n in mn]
        specs += [ProtocolSpec(K.GHZ_PARALLEL_D, d=d, m=m, n=n, k=k, retain_coins=retain)
                  for m, n in mn for k in range(1, min(m, n)) for retain in (False, True)]
    return specs


def test_closed_forms_pinned_over_a_grid():
    # spec | outcome digits:correction label:global phase, one line per branch
    rows = [f"{spec} | {''.join(map(str, b.outcome))}:{corr.label}:{complex(corr.global_phase)!r}"
            for spec in _closed_form_grid() for b in run_protocol(spec).branches
            for corr in [b.correction]]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert f"{len(rows)} sha256:{digest}" == (
        "3709 sha256:938575a9cf0e7385fc056e19ef789386c19c8c533e38f40f03448b2c36d157c0")
