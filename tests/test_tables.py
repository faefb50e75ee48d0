"""Row-by-row verification of the six reference tables."""

import pytest

from walknet import protocols
from walknet.protocols import ProtocolKind, ProtocolSpec, run_protocol
from walknet.tables import TABLE_IDS, verify_all_tables, verify_table


@pytest.mark.parametrize("table_id,expected_rows", [(1, 4), (2, 8), (5, 4), (6, 8)])
def test_fixed_tables_fully_verified(table_id, expected_rows):
    report = verify_table(table_id)
    assert len(report.rows) == expected_rows
    assert report.all_ok
    for row in report.rows:
        assert row.state_fidelity >= 1 - 1e-9
        assert row.corrected_fidelity >= 1 - 1e-9


def test_symbolic_tables_verified_at_all_expansion_params():
    for table_id in (3, 4):
        report = verify_table(table_id)
        assert report.all_ok
        assert len(report.rows) > 0
        assert all(abs(sum(r.probability for r in report.rows
                           if r.params == report.rows[0].params) - 1.0) < 1e-9
                   for _ in [0])


def test_table4_transposition_is_noted():
    report = verify_table(4)
    assert any("transposed" in note for note in report.notes)


def test_table5_unequal_coin_outcomes_never_occur():
    report = verify_table(5)
    outcomes = {r.outcome for r in report.rows}
    assert outcomes == {(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)}
    assert not report.notes  # no unlisted branches survived pruning


def test_table5_runs_its_circuit(monkeypatch):
    # run_protocol builds ghz-swap-d's residuals from its law's corrections; the
    # table reads the residuals its circuit leaves
    monkeypatch.setattr(protocols, "_frame_residual", lambda *a: pytest.fail("read the law"))
    report = verify_table(5)
    assert report.all_ok and len(report.rows) == 4


def test_table6_probabilities_uniform():
    report = verify_table(6)
    for row in report.rows:
        assert row.probability == pytest.approx(1 / 8, abs=1e-12)


def test_table6_corrections_recover_target_through_engine():
    """Cross-check: table-6 rows equal ghz-from-bells-d branches after the
    documented relabeling (coins q1,q4; position q2; outputs q0,q3,q5)."""
    engine = run_protocol(ProtocolSpec(ProtocolKind.GHZ_FROM_BELLS_D, d=2, bells=2))
    assert engine.all_recovered()
    report = verify_table(6)
    assert report.all_ok and len(report.rows) == len(engine.branches)


def test_verify_all_tables():
    reports = verify_all_tables()
    assert set(reports) == set(TABLE_IDS)
    assert all(rep.all_ok for rep in reports.values())


def test_report_serialization():
    blob = verify_table(1).to_dict()
    assert blob["table"] == 1
    assert blob["rows_checked"] == blob["rows_ok"] == 4
    assert blob["all_ok"] is True


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        verify_table(7)


def test_table6_named_row_101():
    # outcome 101 leaves (|010> + |101>)/sqrt2 on the outputs; X on the
    # middle output particle restores the GHZ target
    report = verify_table(6)
    row = next(r for r in report.rows if r.outcome == (1, 0, 1))
    assert row.listed_correction == "X4"
    assert row.ok
