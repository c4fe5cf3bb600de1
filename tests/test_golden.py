"""Golden artifacts: fixed inputs must keep producing byte-identical
``joins.csv`` and ``solution.txt``, and bit-identical distance matrices.

The artifact digests were recorded before the configuration table was built
from per-left ball counts (the tied-queries case before greedy selection
became incremental), the distance digest before the character distances
became batch kernels; a change that moves them changes the program's output
and must say why.  The tied-queries case repeats every query row, so many
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
# sha256 of d_lr then d_ll (float64 bytes) of the "run" input's name column
GOLDEN_DISTANCES = "fdbb9891b146e48b4366a44e64432c9ff6901ceb3534f2a600fd0939a3595cc2"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts(mode: str, tmp: Path) -> tuple[str, str]:
    """Run one CLI mode on its fixed inputs; digests of joins and solution."""
    if mode in ("run", "run-ties"):
        L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
        if mode == "run-ties":
            R = repeat_queries(R, 4)
        extra = ["--column", "name"]
    else:
        L, R, _ = generate_synthetic(n_left=20, seed=3, unmatched_rate=0.2)
        L, R = add_random_column(L, seed=1), add_random_column(R, seed=2)
        extra = ["--space-preset", "reduced24", "--weight-steps", "4"]
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


def distance_digest() -> str:
    """Digest of the distances ``prepare_columns`` computes for the "run"
    mode's input over the full function space."""
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    prep = prepare_columns(L, R, ("name",), enumerate_function_space())
    digest = hashlib.sha256()
    for matrix in (prep.d_lr["name"], prep.d_ll["name"]):
        digest.update(matrix.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


def test_distances_unchanged():
    assert distance_digest() == GOLDEN_DISTANCES


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
    print("distances", distance_digest())
