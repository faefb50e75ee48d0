"""Command-line interface.

Subcommands: swap, verify-tables, distribute, fractal, mqss, readout.  Every
randomized path takes its entropy from --seed (default 1729), so identical
flags give byte-identical output.  JSON payloads are emitted with sorted keys
on stdout; --output csv switches the tabular commands (swap branches, fractal
analytics) to fixed-column CSV.  Exit codes: 0 success, 1 invariant failure,
2 usage error.  The only environment knob is WALKNET_LOG_LEVEL.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import fractal, mqss, readout, tables
from .network import NetworkError, bundled_network_path, distribute, load_network
from .protocols import FIDELITY_TOL, SPEC_FIELDS, ProtocolKind, ProtocolSpec, run_protocol

DEFAULT_SEED = 1729

PROTOCOL_ALIASES = {
    "bell2d": ProtocolKind.BELL_SWAP_2D,
    "ghz2d": ProtocolKind.GHZ_SWAP_2D,
    "merge1": ProtocolKind.MERGE_METHOD_1,
    "merge2": ProtocolKind.MERGE_METHOD_2,
    "combined": ProtocolKind.MERGE_COMBINED,
    "bell-d": ProtocolKind.BELL_SWAP_D,
    "parallel-d": ProtocolKind.GHZ_PARALLEL_D,
    "ghz-d": ProtocolKind.GHZ_SWAP_D,
    "multicoin-d": ProtocolKind.GHZ_MULTI_COIN_D,
    "from-bells": ProtocolKind.GHZ_FROM_BELLS_D,
    "triangle2d": ProtocolKind.TRIANGLE_MERGE_2D,
    "triangle-d": ProtocolKind.TRIANGLE_MERGE_D,
}
PROTOCOL_ALIASES.update({kind.value: kind for kind in ProtocolKind})

SWAP_CSV_HEADER = "outcome,probability,correction,fidelity"


def _emit(args, payload: dict, csv_lines: list[str] | None = None) -> None:
    if args.quiet:
        return
    if args.output == "csv" and csv_lines is not None:
        print("\n".join(csv_lines))
    else:  # streamed: the text of a 7^5-branch swap is never held whole
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        print()


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)
# ---------------------------------------------------------------------------

def _cmd_swap(args) -> int:
    kind = PROTOCOL_ALIASES.get(args.protocol)
    if kind is None:
        raise ValueError(f"unknown protocol {args.protocol!r}; "
                         f"choose from {sorted(PROTOCOL_ALIASES)}")
    labels = tuple(_parse_int_list(args.labels)) if args.labels else (0, 0, 0, 0)
    given = {"m": args.m, "n": args.n, "k": args.k, "l": args.l,
             "bells": args.bells, "bell_labels": labels}
    # only the fields the kind reads; retain_coins always, so validate refuses
    # it for the kinds that ignore it
    spec = ProtocolSpec(kind=kind, d=args.d, retain_coins=args.retain_coins,
                        **{f: given[f] for f in SPEC_FIELDS[kind] if f in given})
    result = run_protocol(spec)
    ok = result.all_recovered(FIDELITY_TOL)
    csv_lines = [SWAP_CSV_HEADER] + [
        "{},{:.12f},{},{:.12f}".format("".join(map(str, b.outcome)),
                                       b.probability, b.correction.label,
                                       b.fidelity)
        for b in result.branches
    ]
    _emit(args, result.to_dict(), csv_lines)
    return 0 if ok else 1


def _cmd_verify_tables(args) -> int:
    ids = [args.table] if args.table else list(tables.TABLE_IDS)
    reports = {tid: tables.verify_table(tid) for tid in ids}
    all_ok = all(rep.all_ok for rep in reports.values())
    payload = {
        "tables": [rep.to_dict() for rep in reports.values()],
        "all_ok": all_ok,
        "summary": (f"Tables {ids[0]}-{ids[-1]}: all rows verified" if all_ok
                    else "table verification FAILED"),
    }
    _emit(args, payload)
    if not args.quiet and args.output != "csv":
        print(payload["summary"], file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_distribute(args) -> int:
    tree, schedule, result = distribute(
        load_network(args.network), _parse_int_list(args.terminals), mode=args.mode,
        d=args.d, seed=args.seed, exact_steiner=args.exact_steiner)
    payload = {
        "steiner": {
            "terminals": sorted(tree.terminals),
            "edges": sorted(list(e) for e in tree.edges),
            "extra_nodes": sorted(tree.steiner_nodes),
        },
        "schedule": schedule.to_dict(),
        "result": result.to_dict(),
    }
    _emit(args, payload)
    if result.fidelity is not None and result.fidelity < 1 - FIDELITY_TOL:
        return 1
    return 0


def _cmd_fractal(args) -> int:
    if args.simulate_merges:
        run = fractal.execute_merge_schedule(args.t, d=args.d, seed=args.seed)
        payload = {
            "iteration": run.iteration, "d": run.d,
            "merges": run.merge_count,
            "final_corners": [list(v) for v in run.final_corners],
            "fidelity": run.fidelity,
        }
        _emit(args, payload)
        return 0 if run.fidelity >= 1 - FIDELITY_TOL else 1
    if args.schedule:
        steps = fractal.merge_schedule(args.t)
        payload = {
            "iteration": args.t,
            "merge_count": len(steps),
            "steps": [{"level": s.level, "pos": list(s.pos),
                       "output": [list(v) for v in s.output]} for s in steps],
        }
        _emit(args, payload)
        return 0
    if args.graph:
        net = fractal.build_quantum_network(args.t)
        _emit(args, net.to_adjacency_json())
        return 0
    # default: analytics
    rec = fractal.analytics(args.t)
    csv_lines = [fractal.CSV_HEADER, rec.csv_row()]
    _emit(args, rec.to_dict(), csv_lines)
    return 0


def _cmd_mqss(args) -> int:
    eav = None if args.eavesdrop in (None, "none") else int(args.eavesdrop)
    config = mqss.MqssConfig(d=args.d, participants=args.participants,
                             secret=args.secret, detect_pairs=args.pairs,
                             threshold=args.threshold, eavesdrop_channel=eav,
                             seed=args.seed)
    transcript = mqss.run_mqss(config)
    _emit(args, transcript.to_dict())
    if transcript.aborted:
        return 0  # detecting an attack is the correct behavior
    return 0 if transcript.reconstructed == args.secret else 1


def _cmd_readout(args) -> int:
    with open(args.counts) as fh:
        counts = readout.CountVector.from_dict(json.load(fh))
    records = readout.load_device_records(args.device)
    if len(records) < counts.n_qubits:
        raise ValueError(f"device table has {len(records)} qubits, counts need "
                         f"{counts.n_qubits}")
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        mats = [r.to_transfer_matrix(args.mode) for r in records[:counts.n_qubits]]
    corrected = readout.correct_counts(counts, mats)
    payload = corrected.to_dict(counts.n_qubits)
    payload["mode"] = args.mode
    payload["total_shots"] = counts.total
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walknet",
        description="qudit walk protocols, network distribution, fractal "
                    "networks, secret sharing, readout correction")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for every randomized path (default 1729)")
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout payloads; exit code only")
    # the same globals are accepted after the subcommand; SUPPRESS keeps a
    # post-subcommand occurrence from clobbering one given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("swap", help="run one swapping/merging protocol",
                       parents=[common])
    p.add_argument("protocol")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--bells", type=int, default=1)
    p.add_argument("--labels", help="bell-d labels m,n,p,q")
    p.add_argument("--retain-coins", action="store_true")
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("verify-tables", help="check the reference tables",
                       parents=[common])
    p.add_argument("--table", type=int, choices=tables.TABLE_IDS)
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("distribute", help="plan and run a GHZ distribution",
                       parents=[common])
    p.add_argument("--network", default=str(bundled_network_path()))
    p.add_argument("--terminals", required=True, help="comma-separated node ids")
    p.add_argument("--mode", choices=("simulated", "symbolic"), default="simulated")
    p.add_argument("--d", type=int, help="override the file's local_dim")
    p.add_argument("--exact-steiner", action="store_true")
    p.set_defaults(func=_cmd_distribute)

    p = sub.add_parser("fractal", help="gasket networks and analytics",
                       parents=[common])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--analytics", action="store_true", help="(default)")
    group.add_argument("--schedule", action="store_true")
    group.add_argument("--graph", action="store_true")
    group.add_argument("--simulate-merges", action="store_true")
    p.set_defaults(func=_cmd_fractal)

    p = sub.add_parser("mqss", help="multiparty secret sharing run",
                       parents=[common])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--participants", type=int, default=2)
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--eavesdrop", default="none",
                   help="channel index to attack, or 'none'")
    p.set_defaults(func=_cmd_mqss)

    p = sub.add_parser("readout", help="correct a counts file",
                       parents=[common])
    p.add_argument("--counts", required=True, help="JSON {bitstring: count}")
    p.add_argument("--device", default=str(readout.bundled_device_path()))
    p.add_argument("--mode", choices=(readout.SYMMETRIC, readout.STOCHASTIC),
                   default=readout.SYMMETRIC)
    p.set_defaults(func=_cmd_readout)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        logging.basicConfig(level=os.environ.get("WALKNET_LOG_LEVEL", "WARNING"))
        return args.func(args)
    except (ValueError, NetworkError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
