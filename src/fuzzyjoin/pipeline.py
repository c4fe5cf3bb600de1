"""Batch pipeline: ingest, solve, and write artifacts.

The stages run in a fixed order (ingest, blocking, negative rules,
distances, precompute, greedy) and the outputs are deterministic: the
same input tables and RunConfig produce byte-identical joins.csv and
solution.txt, across runs and processes.  The manifest
carries timings and is exempt from that guarantee.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .functions import JoinResult, SPACE_PRESETS, enumerate_function_space, save_solution
from .multicolumn import check_settings, solve_multi
from .negative_rules import dump_rules
from .solver import SolveResult
from .tables import DataError, load_table


class ConfigError(Exception):
    """Invalid run configuration."""


class StageError(Exception):
    """Bad data met inside a named pipeline stage."""

    def __init__(self, stage: str, cause: DataError):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    left_path: str
    right_path: str
    column: str | None = None  # single-column mode: the column search over this one
    columns: list[str] | None = None  # multi-column mode (None = shared columns)
    multi: bool = False
    id_column: str = "id"
    delimiter: str = ","
    tau: float = 0.9
    beta: float = 1.0
    s: int = 50
    g: int = 10
    space_preset: str = "full"
    threads: int = 1  # ignored; kept only because perfbench's job sets it
    use_negative_rules: bool = True
    out_path: str = "joins.csv"
    solution_path: str = "solution.txt"
    manifest_path: str | None = None
    dump_rules_path: str | None = None

    def join_columns(self) -> list[str] | None:
        """The columns ``solve_multi`` searches: ``--column`` alone in
        single-column mode; None for every shared column."""
        return self.columns if self.multi else [self.column]

    def validate(self) -> None:
        if not self.multi and not self.column:
            raise ConfigError("single-column mode requires --column")
        try:
            check_settings(self.tau, self.s, self.g, self.beta, self.join_columns())
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(self.delimiter) != 1:
            raise ConfigError(
                f"delimiter must be one character, got {self.delimiter!r}"
            )
        if self.space_preset not in SPACE_PRESETS:
            raise ConfigError(
                f"unknown space preset {self.space_preset!r}; "
                f"choose from {sorted(SPACE_PRESETS)}"
            )
        # fail before the work, not when the artifacts are written
        for path in (self.out_path, self.solution_path, self.manifest_path, self.dump_rules_path):
            check_output_dir(path)


def check_output_dir(path: str | None) -> None:
    """Raise ConfigError unless the directory to write ``path`` into
    exists; None means no output."""
    if path is not None and not Path(path).parent.is_dir():
        raise ConfigError(f"no directory {str(Path(path).parent)!r} to write {path} into")


def write_joins_csv(result: JoinResult, path: str | Path) -> None:
    """right_id, left_id, estimated_precision, config_index; sorted by
    right id for reproducible bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["right_id", "left_id", "estimated_precision", "config_index"])
        for rid in sorted(result.assignments):
            a = result.assignments[rid]
            writer.writerow([rid, a.left_id, repr(a.precision), a.config_index])


def greedy_report(res: SolveResult) -> dict:
    """Why the search stopped, and each pick with the union's tp, fp and
    estimated precision after it; the stop reason is None when no search
    ran (no candidate pairs)."""
    greedy = res.greedy
    if greedy is None:
        return {"stop_reason": None, "trace": []}
    trace = [
        {**asdict(step), "function": c.function.label(), "threshold": c.threshold}
        for step, c in zip(greedy.trace, res.solution.configs)
    ]
    return {"stop_reason": greedy.stop_reason, "trace": trace}


@dataclass
class PipelineOutcome:
    solve_result: SolveResult
    manifest: dict
    warnings: list[str] = field(default_factory=list)


def run_pipeline(cfg: RunConfig) -> PipelineOutcome:
    cfg.validate()
    t_total = time.perf_counter()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    try:
        L = load_table(cfg.left_path, cfg.id_column, cfg.delimiter, role="reference")
        R = load_table(cfg.right_path, cfg.id_column, cfg.delimiter, role="query")
    except DataError as exc:
        raise StageError("ingest", exc) from exc
    timings["ingest"] = time.perf_counter() - t0

    functions = enumerate_function_space(SPACE_PRESETS[cfg.space_preset])
    try:
        res = solve_multi(
            L,
            R,
            tau=cfg.tau,
            g=cfg.g,
            columns=cfg.join_columns(),
            functions=functions,
            s=cfg.s,
            beta=cfg.beta,
            use_negative_rules=cfg.use_negative_rules,
        )
    except DataError as exc:
        raise StageError("solve", exc) from exc
    timings.update(res.timings)

    t0 = time.perf_counter()
    write_joins_csv(res.result, cfg.out_path)
    save_solution(res.solution, cfg.solution_path)
    if cfg.dump_rules_path is not None:
        dump_rules(set().union(*res.rules_by_column.values()), cfg.dump_rules_path)
    timings["write"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    manifest = {
        "config": asdict(cfg),
        "timings": timings,
        "pair_counts": res.pair_counts,
        "n_left": len(L),
        "n_right": len(R),
        "n_configs_selected": len(res.solution.configs),
        "n_joined": len(res.result.assignments),
        "estimated_precision": res.estimated_precision,
        "estimated_recall": res.estimated_recall,
        "warnings": res.warnings,
        "greedy": greedy_report(res),
        "selected_columns": list(res.selected_columns),
        "column_weights": list(res.weights),
        "inner_invocations": res.invocations,
        "trials": res.trials,
        "history": res.history,
    }
    if cfg.manifest_path is not None:
        Path(cfg.manifest_path).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return PipelineOutcome(res, manifest, list(res.warnings))
