"""Command-line front end.

Subcommands: run (single-column join), run-multi (multi-column join),
eval (score a produced join against ground truth), bench (synthetic and
robustness suites).  Exit codes: 0 ok, 2 configuration error, 3 data
error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback

from .evaluation import (
    GroundTruth,
    generate_synthetic,
    pr_auc,
    robustness_beta_sweep,
    robustness_irrelevant_r,
    robustness_sparse_l,
    robustness_zero_join,
    score,
)
from .functions import JoinResult, Assignment
from .pipeline import ConfigError, PipelineOutcome, RunConfig, StageError, run_pipeline
from .solver import solve
from .tables import DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--left", required=True, help="reference table CSV")
    p.add_argument("--right", required=True, help="query table CSV")
    p.add_argument("--id-column", default="id")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--precision", type=float, default=0.9, metavar="TAU")
    p.add_argument("--blocking-factor", type=float, default=1.0, metavar="BETA")
    p.add_argument("--steps", type=int, default=50, help="threshold grid size per function")
    p.add_argument("--space-preset", choices=["full", "reduced24"], default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-negative-rules", action="store_true")
    p.add_argument("--out", default="joins.csv")
    p.add_argument("--solution", default="solution.txt")
    p.add_argument("--manifest", default=None)
    p.add_argument("--dump-negative-rules", default=None, metavar="PATH")


def _config_from_args(args: argparse.Namespace, multi: bool) -> RunConfig:
    return RunConfig(
        left_path=args.left,
        right_path=args.right,
        column=getattr(args, "column", None),
        columns=args.columns.split(",") if getattr(args, "columns", None) else None,
        multi=multi,
        id_column=args.id_column,
        delimiter=args.delimiter,
        tau=args.precision,
        beta=args.blocking_factor,
        s=args.steps,
        g=getattr(args, "weight_steps", 10),
        space_preset=args.space_preset,
        seed=args.seed,
        use_negative_rules=not args.no_negative_rules,
        out_path=args.out,
        solution_path=args.solution,
        manifest_path=args.manifest,
        dump_rules_path=args.dump_negative_rules,
    )


def _print_outcome(outcome: PipelineOutcome) -> None:
    m = outcome.manifest
    print(
        f"joined {m['n_joined']}/{m['n_right']} right records with "
        f"{m['n_configs_selected']} configurations "
        f"(estimated precision {m['estimated_precision']:.3f})"
    )
    if "selected_columns" in m:
        cols = ", ".join(
            f"{c}={w:.2f}" for c, w in zip(m["selected_columns"], m["column_weights"])
        )
        print(f"columns selected: {cols}")
    for w in outcome.warnings:
        print(f"warning: {w}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    outcome = run_pipeline(_config_from_args(args, multi=False))
    _print_outcome(outcome)
    return EXIT_OK


def _cmd_run_multi(args: argparse.Namespace) -> int:
    outcome = run_pipeline(_config_from_args(args, multi=True))
    _print_outcome(outcome)
    return EXIT_OK


def _read_gt_csv(path: str) -> GroundTruth:
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"right_id", "left_id"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns right_id,left_id")
        return GroundTruth(
            {row["right_id"]: row["left_id"] for row in reader if row["left_id"]}
        )


def _read_joins_csv(path: str) -> JoinResult:
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"right_id", "left_id"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns right_id,left_id")
        assignments = {}
        for row in reader:
            assignments[row["right_id"]] = Assignment(
                row["left_id"],
                float(row.get("estimated_precision") or 1.0),
                int(row.get("config_index") or 0),
            )
        return JoinResult(assignments)


def _cmd_eval(args: argparse.Namespace) -> int:
    gt = _read_gt_csv(args.gt)
    pred = _read_joins_csv(args.pred)
    report = score(pred, gt)
    if args.scores:
        with open(args.scores, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            need = {"right_id", "left_id", "score"}
            if reader.fieldnames is None or not need <= set(reader.fieldnames):
                raise DataError(f"{args.scores}: expected columns right_id,left_id,score")
            scored = [
                (
                    float(row["score"]),
                    gt.matches.get(row["right_id"]) == row["left_id"],
                )
                for row in reader
            ]
        report.pr_auc = pr_auc(scored, max(gt.total_true(), 1))
    payload = report.as_dict()
    for key, value in payload.items():
        print(f"{key}: {value}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "synthetic":
        L, R, gt = generate_synthetic(
            n_left=args.n_left, seed=args.seed, unmatched_rate=0.2
        )
        res = solve(L, R, "name", tau=args.precision, seed=args.seed)
        report = score(res.result, gt)
        print(f"synthetic n_left={args.n_left} seed={args.seed}")
        print(f"  estimated precision: {res.estimated_precision:.3f}")
        for key, value in report.as_dict().items():
            print(f"  {key}: {value}")
        return EXIT_OK
    # robustness
    L, R, gt = generate_synthetic(n_left=args.n_left, seed=args.seed, unmatched_rate=0.2)
    print(f"robustness base: n_left={args.n_left} seed={args.seed}")
    for point in robustness_irrelevant_r(L, R, gt, rates=(0.2, 0.8), seed=args.seed):
        r = point.report
        print(
            f"  irrelevant-R rate={point.params['rate']}: "
            f"precision={r.precision:.3f} recall_abs={r.recall_absolute}"
        )
    zj = robustness_zero_join(n_left=200, n_right=200, seed=args.seed)
    print(f"  zero-join: fp_rate={zj.fp_rate:.4f}")
    for point in robustness_sparse_l(L, R, gt, fractions=(0.1, 0.3), seed=args.seed):
        r = point.report
        print(
            f"  sparse-L fraction={point.params['fraction']}: "
            f"precision={r.precision:.3f} recall_abs={r.recall_absolute}"
        )
    for point in robustness_beta_sweep(L, R, gt, betas=(0.5, 1.0, 2.0), seed=args.seed):
        r = point.report
        print(
            f"  beta={point.params['beta']}: "
            f"precision={r.precision:.3f} recall_abs={r.recall_absolute}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyjoin",
        description="Unsupervised fuzzy join at a target precision, no labels needed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single-column fuzzy join")
    _add_common_run_flags(p_run)
    p_run.add_argument("--column", required=True, help="join column name (both tables)")
    p_run.set_defaults(fn=_cmd_run)

    p_multi = sub.add_parser("run-multi", help="multi-column fuzzy join")
    _add_common_run_flags(p_multi)
    p_multi.add_argument(
        "--columns", default=None, help="comma-separated columns (default: shared names)"
    )
    p_multi.add_argument("--weight-steps", type=int, default=10, metavar="G")
    p_multi.set_defaults(fn=_cmd_run_multi)

    p_eval = sub.add_parser("eval", help="score joins.csv against ground truth")
    p_eval.add_argument("--pred", required=True, help="joins.csv from a run")
    p_eval.add_argument("--gt", required=True, help="CSV with right_id,left_id")
    p_eval.add_argument("--scores", default=None, help="scored pairs CSV for PR-AUC")
    p_eval.add_argument("--json", default=None, help="also write the report as JSON")
    p_eval.set_defaults(fn=_cmd_eval)

    p_bench = sub.add_parser("bench", help="synthetic benchmark / robustness suites")
    p_bench.add_argument("--suite", choices=["synthetic", "robustness"], required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--n-left", type=int, default=200)
    p_bench.add_argument("--precision", type=float, default=0.9)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        code = EXIT_DATA if isinstance(exc.cause, DataError) else EXIT_INTERNAL
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return code
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
