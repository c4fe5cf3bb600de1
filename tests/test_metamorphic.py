"""Metamorphic checks of the whole CLI pipeline: the order of a table's rows
is not part of the input, so permuting the rows of the reference table, or
of the query table, leaves ``joins.csv`` and ``solution.txt`` byte-identical
in ``run`` and ``run-multi``.  And the search's contract: a result that
joins anything has estimated precision above the target."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_table_csv
from fuzzyjoin import (
    FunctionSpaceOptions,
    add_random_column,
    enumerate_function_space,
    generate_synthetic,
    solve,
    solve_multi,
)
from fuzzyjoin.cli import main
from fuzzyjoin.tables import Table


def outputs(mode: str, L: Table, R: Table, tmp: Path) -> tuple[bytes, bytes]:
    """joins.csv and solution.txt of one CLI run over the reduced24 space."""
    left = write_table_csv(L, tmp / "left.csv")
    right = write_table_csv(R, tmp / "right.csv")
    extra = ["--column", "name"] if mode == "run" else ["--weight-steps", "4"]
    args = [mode, "--left", str(left), "--right", str(right),
            "--out", str(tmp / "joins.csv"), "--solution", str(tmp / "solution.txt"),
            "--space-preset", "reduced24", *extra]
    assert main(args) == 0
    return (tmp / "joins.csv").read_bytes(), (tmp / "solution.txt").read_bytes()


def permuted(table: Table, order_seed: int) -> Table:
    order = np.random.default_rng(order_seed).permutation(len(table.records))
    return Table(table.columns, tuple(table.records[i] for i in order), table.role)


# bounded: each example is two CLI runs on 25 reference rows
@settings(max_examples=20)
@given(
    mode=st.sampled_from(["run", "run-multi"]),
    seed=st.integers(0, 2**16),
    side=st.sampled_from(["left", "right"]),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_permuting_a_tables_rows_keeps_the_outputs(mode, seed, side, order_seed):
    L, R, _ = generate_synthetic(n_left=25, seed=seed, unmatched_rate=0.2)
    if mode == "run-multi":
        L, R = add_random_column(L, seed=2 * seed + 1), add_random_column(R, seed=2 * seed + 2)
    if side == "left":
        L2, R2 = permuted(L, order_seed), R
    else:
        L2, R2 = L, permuted(R, order_seed)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        want = outputs(mode, L, R, Path(a))
        got = outputs(mode, L2, R2, Path(b))
    assert got[0] == want[0], "joins.csv"
    assert got[1] == want[1], "solution.txt"


REDUCED24 = enumerate_function_space(FunctionSpaceOptions.reduced24())


# bounded: each example is one solve of at most 30 reference rows
@settings(max_examples=40)
@given(
    multi=st.booleans(),
    n_left=st.integers(10, 30),
    data_seed=st.integers(0, 2**16),
    tau=st.sampled_from([0.5, 0.8, 0.9, 0.95]),
)
def test_a_non_empty_result_has_estimated_precision_above_tau(multi, n_left, data_seed, tau):
    L, R, _ = generate_synthetic(n_left=n_left, seed=data_seed, unmatched_rate=0.2)
    if multi:
        L = add_random_column(L, seed=2 * data_seed + 1)
        R = add_random_column(R, seed=2 * data_seed + 2)
        res = solve_multi(L, R, tau=tau, g=4, functions=REDUCED24)
    else:
        res = solve(L, R, "name", tau=tau, functions=REDUCED24)
    if res.solution.configs or res.result.assignments:
        assert res.solution.configs and res.result.assignments
        assert res.estimated_precision > tau
        assert res.estimated_precision == res.tp / (res.tp + res.fp)
