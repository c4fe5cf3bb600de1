"""Joins over one or more columns: forward column selection with weight
interpolation.

Columns are added one at a time, reminiscent of forward feature selection.
Each candidate column is tried at a grid of interpolation weights against
the weights inherited from previous rounds; every trial invokes the
single-column search on the weighted sum of per-column distances, which
``solver.reduce_distances`` forms one block of functions at a time.  A column
is committed only when the best trial strictly improves estimated recall.
A single-column join (``solver.solve``) is this search over one column: one
trial, on that column's distances.

Within one configuration the same join function applies to every selected
column; per-column heterogeneous functions are excluded for tractability.

Each column set is prepared once (blocking on the joined values, negative
rules, per-column distances) and every trial over it reuses the
preparation.  A set's preparation and solves work per distinct query: the
right records with equal raw values in that set's own columns are one query,
measured and joined once, and each record gets its query's join.  Every set
is prepared with the search's one string table per column, built by the
first set that holds the column: a column is tokenized once per tokenizer
over the whole search, and a value pair whose distances a previous set
computed is gathered from that column's table.  No set after that of
every column can use the tables, so that set frees each column's table right
after the column's distance call, before the next column's; a one-column
search frees its table before precompute and greedy.  A set's trials run as
one consecutive batch, so once its last trial has reduced the set's distance
matrices they are dropped, before that trial's configuration table is
built.  The manifest's preparation timings are summed over the column
sets, and its precompute (reduction and fill) and greedy timings over the
trials.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Sequence

from .distances import ColumnStrings
from .functions import JoinFunction, JoinResult, Solution, enumerate_function_space
from .solver import (
    PreparedColumns,
    SolveResult,
    prepare_columns,
    reduce_distances,
    solve_from_distances,
)
from .tables import DataError, Table


def interpolate(
    w: Sequence[float], j: int, alpha: float
) -> tuple[float, ...]:
    """Pull the weight vector toward column j: (1-alpha) * w + alpha * e_j.

    From the all-zero starting vector the first selection jumps straight to
    e_j, so the vector always sums to 1 once any column is selected.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if all(x == 0.0 for x in w):
        return tuple(1.0 if i == j else 0.0 for i in range(len(w)))
    return tuple(
        (1.0 - alpha) * x + (alpha if i == j else 0.0) for i, x in enumerate(w)
    )


def shared_columns(L: Table, R: Table, columns: Sequence[str] | None) -> list[str]:
    """``columns``, each checked to be in both tables, or by default every
    named column the tables share: a header's empty cell names none."""
    if columns is not None:
        missing = [c for c in columns if c not in L.columns or c not in R.columns]
        if missing:
            raise DataError(
                f"columns {missing} not present in both tables; "
                f"left has {list(L.columns)}, right has {list(R.columns)}"
            )
        return list(columns)
    shared = [c for c in L.columns if c and c in R.columns]
    if not shared:
        raise DataError(
            f"no shared column names; left has {list(L.columns)}, "
            f"right has {list(R.columns)}"
        )
    return shared


# the most threshold steps per function: the reduction's (functions x steps)
# grid and the table's per-configuration arrays grow with it; a 3-row join
# over the full 136-function space peaked at 72 MB at 10 000 steps
MAX_STEPS = 10_000
# the most weight steps: each round tries g - 1 weights per remaining
# column, one solve each; a 3-row, two-column join ran 1001 trials in 0.88 s
# at 1000 steps
MAX_WEIGHT_STEPS = 1000


def check_settings(
    tau: float, s: int, g: int, beta: float, columns: Sequence[str] | None = None
) -> None:
    """Raise ValueError unless the search's settings are valid: the
    precision target ``tau`` in (0, 1], the threshold steps ``s`` in
    [1, MAX_STEPS], the weight steps ``g`` in [2, MAX_WEIGHT_STEPS], the
    blocking factor ``beta`` positive and finite, and ``columns``, unless
    None, non-empty with no empty or repeated name."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"precision target must be in (0, 1], got {tau}")
    if not 1 <= s <= MAX_STEPS:
        raise ValueError(f"threshold steps must be in [1, {MAX_STEPS}], got {s}")
    if not 2 <= g <= MAX_WEIGHT_STEPS:
        raise ValueError(f"weight steps must be in [2, {MAX_WEIGHT_STEPS}], got {g}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"blocking factor must be positive and finite, got {beta}")
    if columns is None:
        return
    if not columns:
        raise ValueError("no columns to join on")
    if not all(columns):
        raise ValueError(f"column names must be non-empty, got {list(columns)}")
    repeated = sorted({c for c, k in Counter(columns).items() if k > 1})
    if repeated:
        raise ValueError(f"repeated column names {repeated} in {list(columns)}")


def solve_multi(
    L: Table,
    R: Table,
    tau: float = 0.9,
    g: int = 10,
    columns: Sequence[str] | None = None,
    functions: Sequence[JoinFunction] | None = None,
    s: int = 50,
    beta: float = 1.0,
    use_negative_rules: bool = True,
) -> SolveResult:
    """Forward column selection over ``columns``, by default every column
    the tables share (matched by name).  The result's solution names the
    selected columns and their weights, in selection order."""
    check_settings(tau, s, g, beta, columns)
    fns = list(functions) if functions is not None else enumerate_function_space()
    if not fns:
        raise ValueError("no join functions to search: functions is empty")
    cols = shared_columns(L, R, columns)
    # the reference table is assumed duplicate-free: a query nearest two
    # left rows with equal values in the join columns has a tied minimum
    # under every function, and joins neither
    copies = Counter(zip(*(L.column_values(c) for c in cols)))
    left_duplicates = sum(k for k in copies.values() if k > 1)
    m = len(cols)
    preps: dict[frozenset, PreparedColumns] = {}
    tables: dict[str, ColumnStrings] = {}
    alphas = [i / g for i in range(1, g)]

    t_start = time.perf_counter()
    solve_timings: dict[str, float] = {}  # precompute and greedy, over every trial

    def project(w: tuple[float, ...]) -> tuple[float, ...]:
        active = [x for x in w if x > 0.0]
        return tuple(active) if active else (1.0,)

    def run_inner(w: tuple[float, ...], last: bool) -> SolveResult:
        """One trial; ``last`` when no later trial is over its column set."""
        # no two trial weight vectors are equal, so each trial is one solve
        active = tuple(c for c, x in zip(cols, w) if x > 0.0)
        key = frozenset(active)
        if key not in preps:
            # column sets only grow, so no set after that of every column is
            # new to prepare, and it frees each column's table after its call
            preps[key] = prepare_columns(
                L, R, active, fns, beta, use_negative_rules, tables, len(key) == m
            )
        prep = preps[key]
        ws = project(w)
        if len(prep.pairs.lr_right) == 0:
            return SolveResult(
                solution=Solution((), ws, active),
                result=JoinResult({}),
                tp=0.0,
                fp=0.0,
                estimated_precision=1.0,
                estimated_recall=0.0,
                warnings=["no candidate pairs survived blocking and negative rules"],
                pair_counts={"tied_queries": 0},
            )
        assert prep.d_lr, f"column set {list(active)} tried after its last trial"
        t0 = time.perf_counter()
        reduced = reduce_distances(
            prep.pairs, [prep.d_lr[c] for c in active], [prep.d_ll[c] for c in active], ws, s
        )
        reduce_s = time.perf_counter() - t0
        if last:
            # free the set's matrices before the configuration table is built
            prep.d_lr.clear()
            prep.d_ll.clear()
        res = solve_from_distances(fns, prep.pairs, reduced, tau, ws, active)
        res.timings["precompute"] += reduce_s
        for k, v in res.timings.items():
            solve_timings[k] = solve_timings.get(k, 0.0) + v
        return res

    w = tuple(0.0 for _ in cols)
    remaining = list(range(m))
    selection_order: list[int] = []
    current: SolveResult | None = None
    best: SolveResult | None = None
    best_w = w
    best_col: int | None = None
    history: list[dict] = []
    trials: list[dict] = []
    iteration = 0

    while remaining:
        iteration += 1
        for j in remaining:
            if all(x == 0.0 for x in w):
                trial_ws = [interpolate(w, j, alphas[0])]
            else:
                trial_ws = [interpolate(w, j, a) for a in alphas]
            # the trials over one column set are these, consecutive
            for i, w_trial in enumerate(trial_ws):
                res = run_inner(w_trial, last=i == len(trial_ws) - 1)
                trials.append(
                    {
                        "iteration": iteration,
                        "column": cols[j],
                        "weights": w_trial,
                        "estimated_recall": res.estimated_recall,
                    }
                )
                if best is None or res.estimated_recall > best.estimated_recall:
                    best, best_w, best_col = res, w_trial, j
        current_recall = current.estimated_recall if current else 0.0
        if best is not None and best.estimated_recall > current_recall:
            current, w = best, best_w
            remaining.remove(best_col)
            selection_order.append(best_col)
            history.append(
                {
                    "column": cols[best_col],
                    "weights": dict(zip(cols, w)),
                    "estimated_recall": current.estimated_recall,
                    "estimated_precision": current.estimated_precision,
                }
            )
        else:
            break

    if not selection_order:
        # every trial joined nothing; the first, over the first column, says why
        current = best
        current.warnings.append("no column produced any join")
    else:
        # report in selection order, the inherited weights attached
        current.solution = Solution(
            current.solution.configs,
            tuple(w[j] for j in selection_order),
            tuple(cols[j] for j in selection_order),
        )
    prep = preps[frozenset(current.selected_columns)]
    # preparation stages summed over every column set tried, as the solve
    # stages are over every trial
    stages = {k: sum(p.timings[k] for p in preps.values()) for k in prep.timings}
    current.rules_by_column = prep.rules
    current.timings = {"total": time.perf_counter() - t_start, **stages, **solve_timings}
    current.pair_counts = {
        **prep.pair_counts, **current.pair_counts, "left_duplicate_rows": left_duplicates
    }
    if left_duplicates:
        current.warnings.append(
            f"{left_duplicates} reference rows have the same values in columns {cols} "
            "as another reference row; a query nearest such rows ties and joins none of them"
        )
    current.trials, current.history = trials, history
    return current
