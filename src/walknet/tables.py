"""Reference outcome/correction tables for the qubit protocols, plus a checker.

Six numbered tables pin down, row by row, the residual state left on the
output particles for each measurement outcome and the local correction that
recovers the canonical target:

  1  bell-swap-2d outcomes (particles 2,3), outputs (1,4)
  2  ghz-swap-2d outcomes (particles 2,3,4), outputs (1,5,6)
  3  merge-method-1, symbolic in the coin results x2..xk via y = sum(x) mod 2
  4  merge-method-2, symbolic via N = sum(x) mod 2
  5  ghz-swap-d at d=2 (outcomes with unequal coin results never occur)
  6  ghz-from-bells-d with two coin pairs at d=2, laid out on a six-qubit row
     q0..q5 with Bell pairs (q0,q1),(q2,q3),(q4,q5): the coins are q1 and q4,
     the shared position is q2, and the inverse Fourier lands on q3, so the
     outputs are (q0,q3,q5) and the outcome order is (q1,q2,q4)

Table 4 note: the conventional two-row layout of this table pairs its
correction entries the other way around, putting the flip-free entry next to
the branch whose residual actually needs the X flips (no single-site phase
can take a |0..01..1>-type state to the GHZ target).  The fixture stores both
pairings; verify_table checks the one the residual states force and reports
the transposition in its notes instead of failing.

verify_table runs the owning protocol's circuit through ``run_stages`` and
checks every row twice: the pre-correction residual against the listed
state, and the listed correction against the canonical target, both by
phase-invariant fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .protocols import (
    FIDELITY_TOL,
    TABLE_1,
    TABLE_2,
    ProtocolKind,
    ProtocolSpec,
    circuit,
    qubit_correction,
    run_stages,
    star_merge_stage,
    table3_row,
    table4_row,
)
from .qudit import QuditState, canonical_bell, canonical_ghz, fidelity

TABLE_IDS = (1, 2, 3, 4, 5, 6)


def _ket_state(terms: list[tuple[float, str]]) -> QuditState:
    n = len(terms[0][1])
    amps = np.zeros(2**n, dtype=complex)
    for coeff, bits in terms:
        amps[int(bits, 2)] = coeff
    return QuditState(2, n, amps / np.linalg.norm(amps))


@dataclass
class RowReport:
    outcome: tuple[int, ...]
    listed_correction: str
    state_fidelity: float
    corrected_fidelity: float
    probability: float
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.state_fidelity >= 1 - FIDELITY_TOL
                and self.corrected_fidelity >= 1 - FIDELITY_TOL)


@dataclass
class TableReport:
    table_id: int
    rows: list[RowReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "table": self.table_id,
            "rows_checked": len(self.rows),
            "rows_ok": sum(r.ok for r in self.rows),
            "all_ok": self.all_ok,
            "notes": self.notes,
            "rows": [
                {
                    "outcome": "".join(map(str, r.outcome)),
                    "correction": r.listed_correction,
                    "state_fidelity": r.state_fidelity,
                    "corrected_fidelity": r.corrected_fidelity,
                    "ok": r.ok,
                    **({"params": r.params} if r.params else {}),
                }
                for r in self.rows
            ],
        }


# (outcome) -> (state terms over outputs, [(site, op)...], sign, label); tables
# 1 to 4 live in protocols, where they drive the qubit swap and merge corrections
TABLE_5 = {
    (0, 0, 0): ([(1, "000"), (1, "111")], [], +1, "I1"),
    (0, 0, 1): ([(1, "011"), (1, "100")], [(0, "X")], +1, "X1"),
    (1, 1, 0): ([(1, "000"), (-1, "111")], [(0, "Z")], +1, "Z1"),
    (1, 1, 1): ([(1, "011"), (-1, "100")], [(0, "Z"), (0, "X")], +1, "X1Z1"),
}

# outputs ordered (q0, q3, q5) = particles (1, 4, 6)
TABLE_6 = {
    (0, 0, 0): ([(1, "000"), (1, "111")], [], +1, "I1"),
    (0, 0, 1): ([(1, "001"), (1, "110")], [(2, "X")], +1, "X6"),
    (0, 1, 0): ([(1, "000"), (-1, "111")], [(0, "Z")], +1, "Z1"),
    (0, 1, 1): ([(1, "001"), (-1, "110")], [(2, "X"), (2, "Z")], +1, "Z6X6"),
    (1, 0, 0): ([(1, "011"), (1, "100")], [(0, "X")], +1, "X1"),
    (1, 0, 1): ([(1, "010"), (1, "101")], [(1, "X")], +1, "X4"),
    (1, 1, 0): ([(-1, "011"), (1, "100")], [(0, "X"), (0, "Z")], +1, "Z1X1"),
    (1, 1, 1): ([(-1, "010"), (1, "101")], [(1, "Z"), (1, "X")], +1, "X4Z4"),
}

# Default parameter sets at which the symbolic tables 3 and 4 are expanded.
TABLE_3_PARAMS = ((3, 3, 2), (4, 4, 3), (5, 3, 2))
TABLE_4_PARAMS = ((3, 3, 2), (4, 4, 3), (4, 3, 2))


def _table4_row(m: int, n: int, k: int, outcome: tuple[int, ...]):
    terms, ops, sign, label, conventional = table4_row(m, n, k, outcome)
    return terms, ops, sign, f"{label} (conventional: {conventional})"


# tables 1, 2 and 5: (kind, listed rows)
LISTED_TABLES = {1: (ProtocolKind.BELL_SWAP_2D, TABLE_1),
                 2: (ProtocolKind.GHZ_SWAP_2D, TABLE_2),
                 5: (ProtocolKind.GHZ_SWAP_D, TABLE_5)}
# tables 3 and 4: (kind, (m, n, k) parameter sets, row function)
SYMBOLIC_TABLES = {3: (ProtocolKind.MERGE_METHOD_1, TABLE_3_PARAMS, table3_row),
                   4: (ProtocolKind.MERGE_METHOD_2, TABLE_4_PARAMS, _table4_row)}


def _check_rows(report, branches, rows, params=None):
    """Check (outcome, probability, residual state) branches against rows."""
    seen = set()
    for outcome, probability, post in branches:
        entry = rows.get(outcome)
        if entry is None:
            report.notes.append(
                f"unlisted outcome {outcome} with probability {probability:.3g}")
            continue
        seen.add(outcome)
        terms, site_ops, sign, label = entry
        listed = _ket_state(terms)
        corr = qubit_correction(site_ops, sign)
        report.rows.append(RowReport(
            outcome=outcome,
            listed_correction=label,
            state_fidelity=fidelity(post, listed),
            corrected_fidelity=fidelity(corr.apply_to(post), canonical_ghz(2, post.n)),
            probability=probability,
            params=params or {},
        ))
    for outcome in rows:
        if outcome not in seen:
            report.notes.append(f"listed outcome {outcome} never occurred")
            report.rows.append(RowReport(outcome, rows[outcome][3], 0.0, 0.0, 0.0,
                                         params or {}))


def verify_table(table_id: int) -> TableReport:
    """Simulate the protocol behind one reference table and check every row.

    Mismatches land in the report (rows with ok=False plus notes); the call
    itself never raises on content.
    """
    if table_id not in TABLE_IDS:
        raise ValueError(f"no table {table_id}")
    report = TableReport(table_id)
    if table_id in LISTED_TABLES:
        kind, rows = LISTED_TABLES[table_id]
        _check_rows(report, list(run_stages(*circuit(ProtocolSpec(kind))[:2])), rows)
    elif table_id in SYMBOLIC_TABLES:
        if table_id == 4:
            report.notes.append(
                "correction column entries verified with their row association "
                "transposed relative to the conventional layout (see module docstring)")
        kind, param_sets, row = SYMBOLIC_TABLES[table_id]
        for m, n, k in param_sets:
            branches = list(run_stages(*circuit(ProtocolSpec(kind, m=m, n=n, k=k))[:2]))
            _check_rows(report, branches, {v: row(m, n, k, v) for v, _, _ in branches},
                        params={"m": m, "n": n, "k": k})
    else:
        # table 6, the q0..q5 row: coins q1 and q4 walk onto q2, then q3 is
        # un-Fouriered; the stage reads (q1, q4, q2), the table (q1, q2, q4)
        pairs = (("q0", "q1"), ("q2", "q3"), ("q4", "q5"))
        stage = star_merge_stage(2, ("q1", "q4"), "q2", "q3",
                                 [(canonical_bell(2, 0, 0), pair) for pair in pairs])
        _check_rows(report, sorted(((v1, v2, v4), p, post) for (v1, v4, v2), p, post
                                   in run_stages([stage], ("q0", "q3", "q5"))),
                    TABLE_6)
    return report


def verify_all_tables() -> dict[int, TableReport]:
    return {tid: verify_table(tid) for tid in TABLE_IDS}
