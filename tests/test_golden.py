"""Golden artifacts: fixed inputs must keep producing byte-identical
``joins.csv`` and ``solution.txt``, and bit-identical distance matrices.

The artifact digests were recorded before the configuration table was built
from per-left ball counts (the tied-queries case before greedy selection
became incremental), the "run" distance digest before the character
distances became batch kernels and the "run-multi" one before the set
distances did; a change that moves them changes the program's output and
must say why.  The tied-queries case repeats every query row, so many
configurations tie on profit and the seeded tie-break draws decide picks.
The distance digest catches a last-ulp drift in a kernel even when the joins
survive it.
``PYTHONPATH=src:tests python3 tests/test_golden.py`` prints the current
digests.
"""

import hashlib
from pathlib import Path

from conftest import repeat_queries, write_table_csv
from fuzzyjoin import add_random_column, enumerate_function_space, generate_synthetic
from fuzzyjoin.cli import main
from fuzzyjoin.solver import prepare_columns

GOLDEN = {
    "run": (
        "5c933c388cc50a2a237b6877088f7373b418a54dec8a9f0f7825a751e28355c7",
        "a0abf29812a3e266530f41c33fbc7919613ac1d74d9bd65fd925e3149a965260",
    ),
    "run-ties": (
        "a886ae0fb26a6a0dce0ce30b4c9bce69fed24c97736f8376cd34ceb6c8b1d31f",
        "ce09762d5f7609cba93a93bb6c3d536c06034e658209f71aa2ac4f232dfde42f",
    ),
    "run-multi": (
        "1e4596459629dcf31460280debcfeef475dd3dc9b5ce5e603d6a7545b07f4c3a",
        "1bf83f5ca2e70b7d229d61d2fe16e07f0a14101ea5b8bff938bdb0f507a189e3",
    ),
}
# sha256 of d_lr then d_ll (float64 bytes) of each column of a mode's input
# over the full function space: the "run" input's name column, and the
# "run-multi" input's name and random-string noise columns
GOLDEN_DISTANCES = {
    "run": "fdbb9891b146e48b4366a44e64432c9ff6901ceb3534f2a600fd0939a3595cc2",
    "run-multi": "7f30cddd8ecbd1cfdff35e8fe9603983ef72922eba09d88506ac99e9dd61c8ae",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_inputs(mode: str):
    """The fixed (L, R) tables of one mode."""
    if mode == "run-multi":
        L, R, _ = generate_synthetic(n_left=20, seed=3, unmatched_rate=0.2)
        return add_random_column(L, seed=1), add_random_column(R, seed=2)
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    return L, repeat_queries(R, 4) if mode == "run-ties" else R


def artifacts(mode: str, tmp: Path) -> tuple[str, str]:
    """Run one CLI mode on its fixed inputs; digests of joins and solution."""
    L, R = golden_inputs(mode)
    if mode == "run-multi":
        extra = ["--space-preset", "reduced24", "--weight-steps", "4"]
    else:
        extra = ["--column", "name"]
    left = write_table_csv(L, tmp / "left.csv")
    right = write_table_csv(R, tmp / "right.csv")
    joins, solution = tmp / "joins.csv", tmp / "solution.txt"
    command = "run-multi" if mode == "run-multi" else "run"
    code = main(
        [command, "--left", str(left), "--right", str(right),
         "--out", str(joins), "--solution", str(solution), *extra]
    )
    assert code == 0
    return sha256(joins), sha256(solution)


def distance_digest(mode: str) -> str:
    """Digest of the distances ``prepare_columns`` computes for a mode's
    input over the full function space, column by column."""
    L, R = golden_inputs(mode)
    columns = ("name",) if mode == "run" else L.columns
    prep = prepare_columns(L, R, columns, enumerate_function_space())
    digest = hashlib.sha256()
    for c in columns:
        for matrix in (prep.d_lr[c], prep.d_ll[c]):
            digest.update(matrix.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


def test_distances_unchanged():
    assert distance_digest("run") == GOLDEN_DISTANCES["run"]


def test_multi_column_distances_unchanged():
    assert distance_digest("run-multi") == GOLDEN_DISTANCES["run-multi"]


def test_run_artifacts_unchanged(tmp_path):
    assert artifacts("run", tmp_path) == GOLDEN["run"]


def test_run_tied_queries_artifacts_unchanged(tmp_path):
    assert artifacts("run-ties", tmp_path) == GOLDEN["run-ties"]


def test_run_multi_artifacts_unchanged(tmp_path):
    assert artifacts("run-multi", tmp_path) == GOLDEN["run-multi"]


if __name__ == "__main__":
    import tempfile

    for mode in GOLDEN:
        with tempfile.TemporaryDirectory() as tmp:
            print(mode, *artifacts(mode, Path(tmp)))
    for mode in GOLDEN_DISTANCES:
        print("distances", mode, distance_digest(mode))
