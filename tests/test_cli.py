"""CLI behavior: payloads, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walknet.cli import build_parser, main
from walknet.fractal import edge_count
from walknet.network import bundled_network_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_swap_bell2d_four_rows(capsys):
    code, out, _ = run_cli(capsys, "swap", "bell2d")
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "bell-swap-2d"
    assert len(payload["branches"]) == 4


def test_swap_ghz_d_qutrit_nine_rows(capsys):
    code, out, _ = run_cli(capsys, "swap", "ghz-d", "--d", "3")
    assert code == 0
    assert len(json.loads(out)["branches"]) == 9


@pytest.mark.parametrize("argv, params", [
    (("bell2d",), {}),
    (("ghz-d", "--d", "3"), {}),
    (("merge1", "--m", "4", "--n", "3", "--k", "2"), {"k": 2, "m": 4, "n": 3}),
    (("bell-d", "--d", "3", "--labels", "1,2,0,1"), {"bell_labels": [1, 2, 0, 1]}),
    (("from-bells", "--bells", "2"), {"bells": 2}),
    (("combined", "--m", "5", "--n", "4", "--k", "3", "--l", "2"),
     {"k": 3, "l": 2, "m": 5, "n": 4}),
    (("merge1", "--m", "3", "--n", "2", "--k", "2", "--retain-coins"),
     {"k": 2, "m": 3, "n": 2, "retain_coins": True}),
])
def test_swap_lists_only_parameters_the_kind_reads(capsys, argv, params):
    code, out, _ = run_cli(capsys, "swap", *argv)
    assert code == 0
    assert json.loads(out)["params"] == params


def test_swap_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "swap", "bell2d", "--d", "7", "--k", "-1")
    assert code == 2
    assert "error" in err


def test_swap_unknown_protocol_exit_2(capsys):
    code, _, _ = run_cli(capsys, "swap", "nonsense")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["swap", "bell2d", "--frobnicate"])
    assert exc.value.code == 2


def test_swap_csv_output(capsys):
    code, out, _ = run_cli(capsys, "--output", "csv", "swap", "bell2d")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "outcome,probability,correction,fidelity"
    assert len(lines) == 5


def test_verify_tables_summary(capsys):
    code, out, err = run_cli(capsys, "verify-tables")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["summary"] == "Tables 1-6: all rows verified"
    assert len(payload["tables"]) == 6


def test_verify_single_table(capsys):
    code, out, _ = run_cli(capsys, "verify-tables", "--table", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["tables"]) == 1


def test_distribute_bundled_network(capsys):
    code, out, _ = run_cli(
        capsys, "distribute", "--terminals", "1,2,5,12,13,14")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["fidelity"] >= 1 - 1e-9
    assert sorted(payload["steiner"]["extra_nodes"]) == [3, 6, 8, 9, 11]


def test_distribute_symbolic_mode(capsys):
    code, out, _ = run_cli(
        capsys, "distribute", "--network", str(bundled_network_path()),
        "--terminals", "1,2,5,12,13,14", "--mode", "symbolic")
    assert code == 0
    assert json.loads(out)["result"]["mode"] == "symbolic"


def test_distribute_missing_network_exit_2(capsys):
    code, _, err = run_cli(capsys, "distribute", "--network", "/nope.json",
                           "--terminals", "1,2")
    assert code == 2


def test_fractal_analytics_limit(capsys):
    code, out, _ = run_cli(capsys, "fractal", "--t", "30")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["clustering"] - 0.5480) < 1e-3


def test_fractal_analytics_csv(capsys):
    code, out, _ = run_cli(capsys, "--output", "csv", "fractal", "--t", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,vertices,edges")
    assert lines[1].startswith("2,15,39,")


def test_fractal_schedule_and_simulation(capsys):
    code, out, _ = run_cli(capsys, "fractal", "--t", "2", "--schedule")
    assert code == 0
    assert json.loads(out)["merge_count"] == 4
    code, out, _ = run_cli(capsys, "fractal", "--t", "1", "--simulate-merges",
                           "--d", "3")
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1 - 1e-9
    code, out, _ = run_cli(capsys, "fractal", "--t", "2", "--graph")
    assert code == 0
    adjacency = json.loads(out)["adjacency"]
    assert len(adjacency) == 15
    assert sum(map(len, adjacency.values())) == 2 * edge_count(2) == 78


def test_mqss_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "mqss", "--secret", "7", "--d", "3",
                           "--participants", "2", "--pairs", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["reconstructed"] == 7


def test_mqss_abort_under_attack(capsys):
    code, out, _ = run_cli(capsys, "mqss", "--secret", "3", "--d", "2",
                           "--participants", "2", "--pairs", "200",
                           "--eavesdrop", "1")
    assert code == 0
    assert json.loads(out)["aborted"] is True


def test_readout_roundtrip(capsys, tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"00": 480, "11": 490, "01": 15, "10": 15}))
    code, out, _ = run_cli(capsys, "readout", "--counts", str(counts))
    assert code == 0
    payload = json.loads(out)
    assert payload["total_shots"] == 1000
    probs = payload["probabilities"]
    assert probs["00"] + probs["11"] > 0.95


def test_readout_bad_counts_exit_2(capsys, tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"0x": 3}))
    code, _, _ = run_cli(capsys, "readout", "--counts", str(counts))
    assert code == 2


@pytest.mark.parametrize("argv, files", [
    (("distribute", "--terminals", "1,2,5", "--d", "1"), {}),
    (("distribute", "--terminals", "1,2,5", "--d", "1", "--mode", "symbolic"), {}),
    (("distribute", "--network", "{net}", "--terminals", "0,1"),
     {"net": json.dumps([{"local_dim": 2, "nodes": [], "resources": []}])}),
    (("readout", "--counts", "{counts}"), {"counts": json.dumps([["00", 5]])}),
    (("readout", "--counts", "{counts}", "--device", "{dev}"),
     {"counts": json.dumps({"00": 5, "11": 5}), "dev": "qubit,f1\nq0,0.9\nq1,0.9\n"}),
    (("swap", "bell-d", "--d", "3", "--labels", "1,2"), {}),
])
def test_malformed_input_exits_2(capsys, tmp_path, argv, files):
    # exit 1 is kept for invariant failures
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("distribute", "--terminals", "1,2,5", "--d", "0"),
    ("readout", "--counts", "{tmp}/list.json"),
    ("readout", "--counts", "{tmp}/float.json"),
    ("readout", "--counts", "{tmp}/ok.json", "--device", "{tmp}/dev.json"),
])
def test_zero_dimension_and_non_numeric_readout_files_exit_2(capsys, tmp_path, argv):
    for name, blob in (("list", {"00": [1], "11": 5}), ("float", {"00": 2.7, "11": "5"}),
                       ("ok", {"00": 5, "11": 5}),
                       ("dev", [{"qubit": "q0", "f0": [0.9], "f1": 0.9}])):
        (tmp_path / f"{name}.json").write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("counts", [{"00": 9223372036854775808, "11": 5},
                                    {"00": 9223372036854775807, "11": 5}])
def test_counts_beyond_int64_exit_2(capsys, tmp_path, counts):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code, _, err = run_cli(capsys, "readout", "--counts", str(path))
    assert code == 2
    assert err.startswith("error:") and "beyond the int64 range" in err


def test_unknown_log_level_is_one_error_line_and_exit_2():
    # run as its own process: under pytest the root logger already has
    # handlers, and logging.basicConfig then never reads the level
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "walknet.cli", "swap", "bell2d"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "WALKNET_LOG_LEVEL": "verbose"})
    assert proc.returncode == 2
    assert proc.stderr == "error: Unknown level: 'verbose'\n"


def test_byte_identical_output_for_same_seed(capsys):
    _, out1, _ = run_cli(capsys, "--seed", "5", "mqss", "--secret", "9",
                         "--participants", "2", "--pairs", "4")
    _, out2, _ = run_cli(capsys, "--seed", "5", "mqss", "--secret", "9",
                         "--participants", "2", "--pairs", "4")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "--seed", "6", "mqss", "--secret", "9",
                         "--participants", "2", "--pairs", "4")
    assert out1 != out3


def test_quiet_suppresses_stdout(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "swap", "bell2d")
    assert code == 0
    assert out == ""


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("swap", "verify-tables", "distribute", "fractal", "mqss", "readout"):
        assert name in text
