"""Spans around the program's module functions, and the per-layer metrics
derived from them.

The tracer replaces each wrapped function in every ``fuzzyjoin`` module that
binds it (or only in the module ``ONLY_IN`` names), because ``solver``,
``multicolumn`` and ``pipeline`` bind these names with ``from ... import``
and call them through their own namespace.
Each call records a span (name, start, end, parent).  A layer's time is the
summed duration of its outermost spans; self time is a span's duration minus
its children's.  Hooks keep the wrapped calls' arguments and return values
after each span has closed, and counters that take real work (ground-truth
lookups, distinct pairs) are computed after the job has finished.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time

import numpy as np

# (defining module, function) -> span name.  The "multicolumn" span is the
# solve entry the pipeline calls: solve_multi, or solve, its one-column case.
WRAPPED = {
    ("fuzzyjoin.tables", "load_table"): "tables.load",
    ("fuzzyjoin.pipeline", "write_joins_csv"): "pipeline.write",
    ("fuzzyjoin.multicolumn", "solve_multi"): "multicolumn",
    ("fuzzyjoin.solver", "solve"): "multicolumn",
    ("fuzzyjoin.blocking", "build_index"): "blocking",
    ("fuzzyjoin.solver", "flatten_index"): "blocking",
    ("fuzzyjoin.negative_rules", "learn_rules"): "negative_rules.learn",
    ("fuzzyjoin.solver", "filter_lr_by_rules"): "negative_rules.filter",
    ("fuzzyjoin.negative_rules", "pair_blocked"): "negative_rules.filter",
    ("fuzzyjoin.distances", "distance_matrix"): "distances",
    ("fuzzyjoin.solver", "solve_from_distances"): "solver",
    ("fuzzyjoin.solver", "precompute_config_table"): "solver.precompute",
    ("fuzzyjoin.solver", "greedy_select"): "solver.greedy",
}

# multicolumn filters with an inline per-pair loop over pair_blocked, so there
# each call is a span, and the layer's time includes the wrapper's cost per
# pair.  solver calls pair_blocked inside filter_lr_by_rules, already a span.
ONLY_IN = {"pair_blocked": "fuzzyjoin.multicolumn"}

# Per-layer metrics: name -> (unit, better, the end-to-end metric and the
# workload it should move).  multicolumn.self_s is the self time of the
# "multicolumn" span, which in single-column runs is solve's own work.
SMALL = "job_s on all workloads, small"
BL = "job_s on dup-queries; true_recall on all workloads"
NR = "job_s on dup-queries; true_precision and true_recall on all workloads"
DI = "job_s on single-full and multi-noise; barely on dup-queries"
SO = "job_s and peak_rss_mb on dup-queries; job_s on multi-noise"
MC = "job_s on multi-noise only"
LAYER_METRICS = {
    "tables.load_s": ("s", "lower", SMALL),
    "pipeline.write_s": ("s", "lower", SMALL),
    "blocking.s": ("s", "lower", BL),
    "blocking.lr_pairs": ("count", "lower", BL),
    "blocking.ll_pairs": ("count", "lower", BL),
    "blocking.gt_kept": ("ratio", "higher", BL),
    "negative_rules.learn_s": ("s", "lower", NR),
    "negative_rules.filter_s": ("s", "lower", NR),
    "negative_rules.rules": ("count", "higher", NR),
    "negative_rules.lr_dropped": ("count", "higher", NR),
    "negative_rules.gt_dropped": ("count", "lower", NR),
    "distances.s": ("s", "lower", DI),
    "distances.char_s": ("s", "lower", DI),
    "distances.set_s": ("s", "lower", DI),
    "distances.calls": ("count", "lower", DI),
    "distances.pairs": ("count", "lower", DI),
    "distances.distinct_ratio": ("ratio", "lower", DI),
    "solver.precompute_s": ("s", "lower", SO),
    "solver.greedy_s": ("s", "lower", SO),
    "solver.n_configs": ("count", "lower", SO),
    "solver.greedy_picks": ("count", "lower", SO),
    "solver.config_table_mb": ("MB", "lower", SO),
    "multicolumn.column_sets": ("count", "lower", MC),
    "multicolumn.inner_solves": ("count", "lower", MC),
    "multicolumn.self_s": ("s", "lower", MC),
    "trace.overhead_s": ("s", "lower", "nothing; estimated time the tracer added to the traced job"),
}


class Tracer:
    """Records spans and keeps the wrapped calls' results for counting."""

    def __init__(self, truth: dict[str, str]):
        self.truth = truth
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.preps: list[dict] = []  # one per column-set preparation
        self._prep_by_pairs: dict[int, dict] = {}
        self._index_columns: dict[int, object] = {}
        self.distance_pairs: list[list] = []
        self._split_pairs: list[list] = []  # distance_matrix calls run twice
        self._distance_matrix = None
        self.n_configs = 0
        self.table_bytes = 0
        self.greedy_picks = 0
        self.inner_solves = 0
        self.selected_columns = None

    # --- recording ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            i = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self._open.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[i][2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _split_distance_matrix(self, fn):
        """distance_matrix computed as two calls, character kinds and the
        rest, with the rows put back in order.  Each row depends only on its
        own function, so the result is the same array."""
        from fuzzyjoin.functions import CHAR_DISTANCES

        def split(functions, pairs, idf_by_pt=None, threads=1):
            self.distance_pairs.append(pairs)
            out = np.empty((len(functions), len(pairs)))
            kinds = 0
            for name, want in (("distances.char", True), ("distances.set", False)):
                rows = [i for i, f in enumerate(functions) if (f.distance in CHAR_DISTANCES) == want]
                if rows:
                    kinds += 1
                    sub = self._wrap(name, fn)
                    out[rows] = sub([functions[i] for i in rows], pairs, idf_by_pt, threads)
            if kinds == 2:
                self._split_pairs.append(pairs)
            return out

        return split

    def _after_build_index(self, idx, L, R, column, *args, **kwargs):
        self._index_columns[id(idx)] = (idx, column)

    def _after_flatten_index(self, pairs, idx):
        column = self._index_columns.pop(id(idx))[1]
        cols = (column,) if isinstance(column, str) else tuple(column)
        prep = {"columns": frozenset(cols), "blocked": pairs, "solved": None, "rules": 0}
        self.preps.append(prep)
        self._prep_by_pairs[id(pairs.left_ids)] = prep

    def _after_learn_rules(self, rules, *args, **kwargs):
        self.preps[-1]["rules"] += len(rules)

    def _after_solve_from_distances(self, res, functions, pairs, *args, **kwargs):
        self.inner_solves += 1
        self._prep_by_pairs[id(pairs.left_ids)]["solved"] = pairs

    def _after_precompute_config_table(self, table, *args, **kwargs):
        self.n_configs += table.n_configs
        self.table_bytes = max(self.table_bytes, table.left.nbytes + table.prec.nbytes)

    def _after_greedy_select(self, outcome, *args, **kwargs):
        self.greedy_picks += len(outcome.selected)

    def _after_solve(self, res, *args, **kwargs):
        self.selected_columns = getattr(res, "selected_columns", None)

    _after_solve_multi = _after_solve

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a fuzzyjoin module binds it;
        ``_after_<function>`` methods see each call's result and arguments."""
        modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "fuzzyjoin"}
        for (mod_name, fn_name), span in WRAPPED.items():
            original = getattr(modules[mod_name], fn_name)
            if fn_name == "distance_matrix":
                self._distance_matrix = original
                wrapper = self._wrap(span, self._split_distance_matrix(original))
            else:
                wrapper = self._wrap(span, original, getattr(self, f"_after_{fn_name}", None))
            targets = [modules[ONLY_IN[fn_name]]] if fn_name in ONLY_IN else modules.values()
            for module in targets:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # --- metrics ------------------------------------------------------------

    def _layer_time(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        total = 0.0
        for span in self.spans:
            p = span[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if span[0] == name and p < 0:
                total += span[2] - span[1]
        return total

    def _self_time(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def _overhead(self) -> float:
        """Estimated time the tracer added to the job: the wrapper's cost
        per span, timed here on a no-op, plus the set-up work (pair dedupe)
        that each split distance_matrix call repeats, timed by running the
        original again on the same pairs with no functions.  It is a lower
        bound: a split call also repeats the preprocessing of each pair,
        which the program's cache makes cheap.  Timing the traced job
        against an untraced one instead would be swamped by the drift of a
        shared host between two jobs."""
        probe = Tracer({})
        wrapped = probe._wrap("probe", _noop)
        n, costs = 20_000, []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                _noop()
            t1 = time.perf_counter()
            for _ in range(n):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / n)
            probe.spans.clear()
        repeated = 0.0
        for pairs in self._split_pairs:
            t = time.perf_counter()
            self._distance_matrix([], pairs)
            repeated += time.perf_counter() - t
        return len(self.spans) * statistics.median(costs) + repeated

    def _true_pairs(self, pairs) -> int:
        if pairs is None:
            return 0
        n_left = len(pairs.left_ids)
        lpos = {lid: i for i, lid in enumerate(pairs.left_ids)}
        codes = np.array(
            [r * n_left + lpos[self.truth[rid]] for r, rid in enumerate(pairs.right_ids) if rid in self.truth],
            dtype=np.int64,
        )
        return int(np.isin(pairs.lr_right * n_left + pairs.lr_left, codes).sum())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced job."""
        # the preparation whose column set produced the output joins
        wanted = frozenset(self.selected_columns or ())
        out_prep = next((p for p in self.preps if p["columns"] == wanted), self.preps[-1])
        kept = self._true_pairs(out_prep["blocked"])
        n_pairs = sum(len(p) for p in self.distance_pairs)
        return {
            "tables.load_s": self._layer_time("tables.load"),
            "pipeline.write_s": self._layer_time("pipeline.write"),
            "blocking.s": self._layer_time("blocking"),
            "blocking.lr_pairs": sum(len(p["blocked"].lr_right) for p in self.preps),
            "blocking.ll_pairs": sum(len(p["blocked"].ll_a) for p in self.preps),
            "blocking.gt_kept": kept / len(self.truth) if self.truth else 1.0,
            "negative_rules.learn_s": self._layer_time("negative_rules.learn"),
            "negative_rules.filter_s": self._layer_time("negative_rules.filter"),
            "negative_rules.rules": sum(p["rules"] for p in self.preps),
            "negative_rules.lr_dropped": sum(
                len(p["blocked"].lr_right) - (len(p["solved"].lr_right) if p["solved"] else 0)
                for p in self.preps
            ),
            "negative_rules.gt_dropped": kept - self._true_pairs(out_prep["solved"]),
            "distances.s": self._layer_time("distances"),
            "distances.char_s": self._layer_time("distances.char"),
            "distances.set_s": self._layer_time("distances.set"),
            "distances.calls": len(self.distance_pairs),
            "distances.pairs": n_pairs,
            "distances.distinct_ratio": (
                sum(len(set(p)) for p in self.distance_pairs) / n_pairs if n_pairs else 1.0
            ),
            "solver.precompute_s": self._layer_time("solver.precompute"),
            "solver.greedy_s": self._layer_time("solver.greedy"),
            "solver.n_configs": self.n_configs,
            "solver.greedy_picks": self.greedy_picks,
            "solver.config_table_mb": self.table_bytes / 2**20,
            "multicolumn.column_sets": len(self.preps),
            "multicolumn.inner_solves": self.inner_solves,
            "multicolumn.self_s": self._self_time("multicolumn"),
            "trace.overhead_s": self._overhead(),
        }


def _noop():
    pass


def read_truth(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["right_id"]: row["left_id"] for row in csv.DictReader(fh)}
