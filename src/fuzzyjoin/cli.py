"""Command-line front end.

Subcommands: run (single-column join), run-multi (multi-column join),
eval (score a produced join against ground truth).  Exit codes: 0 ok,
2 configuration error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import traceback

from .evaluation import GroundTruth, pr_auc, score
from .functions import SPACE_PRESETS, Assignment, JoinResult
from .pipeline import (
    ConfigError,
    PipelineOutcome,
    RunConfig,
    StageError,
    check_output_dir,
    run_pipeline,
)
from .tables import DataError, read_text

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
    p.add_argument("--space-preset", choices=list(SPACE_PRESETS), default="full")
    p.add_argument("--no-negative-rules", action="store_true")
    p.add_argument("--out", default="joins.csv")
    p.add_argument("--solution", default="solution.txt")
    p.add_argument("--manifest", default=None)
    p.add_argument("--dump-negative-rules", default=None, metavar="PATH")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        left_path=args.left,
        right_path=args.right,
        column=getattr(args, "column", None),
        columns=None if getattr(args, "columns", None) is None else args.columns.split(","),
        multi=args.multi,
        id_column=args.id_column,
        delimiter=args.delimiter,
        tau=args.precision,
        beta=args.blocking_factor,
        s=args.steps,
        g=getattr(args, "weight_steps", 10),
        space_preset=args.space_preset,
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
    cols = ", ".join(f"{c}={w:.2f}" for c, w in zip(m["selected_columns"], m["column_weights"]))
    print(f"columns selected: {cols}")
    for w in outcome.warnings:
        print(f"warning: {w}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    _print_outcome(run_pipeline(_config_from_args(args)))
    return EXIT_OK


def _read_csv(path: str, columns: tuple[str, ...]) -> list[tuple[int, dict[str, str]]]:
    """(row number, row) pairs of a UTF-8 CSV file that has the given
    columns; the header is row 1."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns {','.join(columns)}")
        return list(enumerate(reader, start=2))
    except csv.Error as exc:
        raise DataError(f"{path}: CSV parse failure: {exc}") from exc


def _parse(path: str, row_no: int, key: str, value, cast):
    """``cast(value)``; a value it rejects raises DataError naming the file,
    the row and the column."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise DataError(f"{path}: row {row_no}: bad {key} {value!r}") from None


def _read_join_rows(path: str) -> list[tuple[int, dict[str, str]]]:
    """``_read_csv`` of a file with one row per right record: a repeated
    right_id raises DataError naming the file, the row and the id."""
    rows = _read_csv(path, ("right_id", "left_id"))
    first: dict[str, int] = {}
    for row_no, row in rows:
        if first.setdefault(row["right_id"], row_no) != row_no:
            raise DataError(
                f"{path}: row {row_no}: repeated right_id {row['right_id']!r} "
                f"(first on row {first[row['right_id']]})"
            )
    return rows


def _read_gt_csv(path: str) -> GroundTruth:
    rows = _read_join_rows(path)
    return GroundTruth({row["right_id"]: row["left_id"] for _, row in rows if row["left_id"]})


def _read_joins_csv(path: str) -> JoinResult:
    """The joins of a produced joins CSV; a row with an empty left_id is no
    join, as in the ground truth."""
    assignments = {}
    for row_no, row in _read_join_rows(path):
        if not row["left_id"]:
            continue
        precision = row.get("estimated_precision") or 1.0
        config_index = row.get("config_index") or 0
        assignments[row["right_id"]] = Assignment(
            row["left_id"],
            _parse(path, row_no, "estimated_precision", precision, float),
            _parse(path, row_no, "config_index", config_index, int),
        )
    return JoinResult(assignments)


def _score(value: str) -> float:
    """A PR-AUC score: a float that ranks, so not NaN."""
    score = float(value)
    if math.isnan(score):
        raise ValueError("NaN score")
    return score


def _cmd_eval(args: argparse.Namespace) -> int:
    check_output_dir(args.json)
    gt = _read_gt_csv(args.gt)
    pred = _read_joins_csv(args.pred)
    report = score(pred, gt)
    if args.scores:
        scored = [
            (
                _parse(args.scores, row_no, "score", row["score"], _score),
                gt.matches.get(row["right_id"]) == row["left_id"],
            )
            for row_no, row in _read_csv(args.scores, ("right_id", "left_id", "score"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyjoin",
        description="Unsupervised fuzzy join at a target precision, no labels needed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single-column fuzzy join")
    _add_common_run_flags(p_run)
    p_run.add_argument("--column", required=True, help="join column name (both tables)")
    p_run.set_defaults(fn=_cmd_run, multi=False)

    p_multi = sub.add_parser("run-multi", help="multi-column fuzzy join")
    _add_common_run_flags(p_multi)
    p_multi.add_argument(
        "--columns", default=None, help="comma-separated columns (default: shared names)"
    )
    p_multi.add_argument("--weight-steps", type=int, default=10, metavar="G")
    p_multi.set_defaults(fn=_cmd_run, multi=True)

    p_eval = sub.add_parser("eval", help="score joins.csv against ground truth")
    p_eval.add_argument("--pred", required=True, help="joins.csv from a run")
    p_eval.add_argument("--gt", required=True, help="CSV with right_id,left_id")
    p_eval.add_argument("--scores", default=None, help="scored pairs CSV for PR-AUC")
    p_eval.add_argument("--json", default=None, help="also write the report as JSON")
    p_eval.set_defaults(fn=_cmd_eval)

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
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
