"""The benchmark's tracer (``perfbench/spans.py``) against the program.

The tracer wraps module functions wherever a ``fuzzyjoin`` module binds
them, by identity, and calls ``distance_matrix`` with (str, str) pair lists
and, to time its own overhead, with no functions and no corpus.  A change
to those names or that call shape shows here, not only in a traced
benchmark run.  The tracer is imported from its file and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from conftest import write_table_csv

import fuzzyjoin.solver as solver
from fuzzyjoin import add_random_column, generate_synthetic
from fuzzyjoin.pipeline import RunConfig, run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("multi", [False, True], ids=["run", "run-multi"])
def test_tracer_wraps_and_restores_the_program(tmp_path, multi):
    L, R, gt = generate_synthetic(n_left=20, seed=3, unmatched_rate=0.2)
    if multi:
        L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
    left = write_table_csv(L, tmp_path / "left.csv")
    right = write_table_csv(R, tmp_path / "right.csv")

    def run(name: str) -> tuple[bytes, bytes]:
        out = tmp_path / name
        out.mkdir()
        run_pipeline(
            RunConfig(
                left_path=str(left),
                right_path=str(right),
                column=None if multi else "name",
                multi=multi,
                g=4,
                space_preset="reduced24",
                out_path=str(out / "joins.csv"),
                solution_path=str(out / "solution.txt"),
            )
        )
        return (out / "joins.csv").read_bytes(), (out / "solution.txt").read_bytes()

    untraced = run("untraced")
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fuzzyjoin"]
    before = [dict(vars(m)) for m in modules]
    original = solver.distance_matrix
    tracer = load_spans().Tracer(gt.matches)
    tracer.install()
    try:
        assert solver.distance_matrix is not original
        traced = run("traced")
    finally:
        tracer.uninstall()

    for module, attrs in zip(modules, before):
        changed = [k for k, v in attrs.items() if vars(module).get(k) is not v]
        assert changed == [], module.__name__
    assert traced == untraced
    metrics = tracer.metrics()  # runs _overhead(), which calls distance_matrix([], pairs)
    assert metrics["distances.calls"] > 0
    assert metrics["distances.set_s"] > 0 and metrics["distances.char_s"] > 0
    assert metrics["trace.overhead_s"] > 0
