"""Golden artifacts: fixed inputs must keep producing byte-identical
``joins.csv`` and ``solution.txt``, and bit-identical distance matrices.

The artifact digests were recorded when greedy selection came to break
profit ties by the lowest configuration index instead of a seeded random
draw, the "run" distance digest before the character distances became batch
kernels and the "run-multi" one before the set distances did; a change that
moves them changes the program's output and must say why.  The tied-queries
case repeats every query row, so many configurations tie on profit and the
tie rule decides picks.
The distance digest catches a last-ulp drift in a kernel even when the joins
survive it.  The blocking digests, recorded before blocking was batched over
distinct query values, pin the flattened blocked pairs and their blocking
scores, so a reordered summation shows even where no candidate list moves.
The token digest, recorded before 3G tokenization became one array pass,
pins both tokenizers' vocabularies (as token strings, in id order), sizes,
tokens and counts over the distinct preprocessed strings of the "run" and
"run-multi" columns.  ``PYTHONPATH=src:tests python3 tests/test_golden.py``
prints the current digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import index_by_id, repeat_queries, token_strings, write_table_csv
from fuzzyjoin import (
    add_random_column,
    build_index,
    enumerate_function_space,
    generate_synthetic,
)
from fuzzyjoin.cli import main
from fuzzyjoin import distances
from fuzzyjoin.solver import flatten_index, prepare_columns
from fuzzyjoin.text import tokenize_strings

GOLDEN = {
    "run": (
        "3be5635b9d8fe61ac4a5e3cbcbf96c7f2f6dd261f2df3e6b10cdd8bb4421e41e",
        "1e9792a9fe788ef4beafe0bdcd92b4c861adc2df3f1ecb233a1ffda5e8c5bf19",
    ),
    "run-ties": (
        "655db66eaf9a1ea0f3870c2fa44ad3f9a332dbd8075fedfe18bb485c401409dd",
        "1165c1f24b24867260afa0c8d0e939979c254899fbeb763bee6003bbf75ec184",
    ),
    "run-multi": (
        "b97420db50c6bc3464d0b9e914b94b70bf7d772d003f60ddfc36760f261d97a9",
        "9846cbca8782cfd63f5ea094f6a63676e527441498ea5161cd08ffc44d9fb155",
    ),
}
# sha256 of d_lr then d_ll (float64 bytes) of each column of a mode's input
# over the full function space: the "run" input's name column, and the
# "run-multi" input's name and random-string noise columns
GOLDEN_DISTANCES = {
    "run": "fdbb9891b146e48b4366a44e64432c9ff6901ceb3534f2a600fd0939a3595cc2",
    "run-multi": "7f30cddd8ecbd1cfdff35e8fe9603983ef72922eba09d88506ac99e9dd61c8ae",
}

# per mode, the sha256 of the blocked pairs (lr_right, lr_left, ll_a, ll_b as
# int64 bytes) and of their blocking scores in the same order (float64
# bytes), blocking with beta 1 on the columns distance_digest uses
GOLDEN_BLOCKING = {
    "run": (
        "8ed56bf851ee2f52f94849ea608c5d0f539c2fff153fafccc4509a130f73a888",
        "e9bb021cc4274eb3ee5a557e3e8329a5cf72837bc216f061ec155b3a15a82b9b",
    ),
    "run-ties": (
        "6fe381f98db7dd5a4d53528b25ec6be9d95f3150a943dc0f86dccfeb401ce313",
        "d999a5b98ec3c9e2213453de492bc14a4fc1052ea0623ea98cfd52e5c4b7cf72",
    ),
    "run-multi": (
        "b495aded0d552a804dd213f507706e1b680a4b173f7e3a8cc37cc0d176c073fa",
        "5cffd2b795765155ada79bc37949a25796ee34d5d69495f42312ac7dc524fcad",
    ),
}

# sha256 of tokenize_strings under 3G then SP over the distinct preprocessed
# strings (every option of the full space) of each column that
# GOLDEN_DISTANCES digests, in that order
GOLDEN_TOKENS = "7456da58d40ca3e9b6e455cb5f624a4b14d50e8d13f183558420228a86c2d6d6"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_inputs(mode: str):
    """The fixed (L, R) tables of one mode."""
    if mode == "run-multi":
        L, R, _ = generate_synthetic(n_left=20, seed=3, unmatched_rate=0.2)
        return add_random_column(L, seed=1), add_random_column(R, seed=2)
    L, R, _ = generate_synthetic(n_left=60, seed=0, unmatched_rate=0.2)
    return L, repeat_queries(R, 4) if mode == "run-ties" else R


def cli_args(mode: str, tmp: Path) -> list[str]:
    """Write one CLI mode's fixed inputs to ``tmp``; its command line, which
    writes joins.csv and solution.txt there."""
    L, R = golden_inputs(mode)
    if mode == "run-multi":
        extra = ["--space-preset", "reduced24", "--weight-steps", "4"]
    else:
        extra = ["--column", "name"]
    left = write_table_csv(L, tmp / "left.csv")
    right = write_table_csv(R, tmp / "right.csv")
    command = "run-multi" if mode == "run-multi" else "run"
    return [command, "--left", str(left), "--right", str(right),
            "--out", str(tmp / "joins.csv"), "--solution", str(tmp / "solution.txt"), *extra]


def artifacts(mode: str, tmp: Path) -> tuple[str, str]:
    """Run one CLI mode on its fixed inputs; digests of joins and solution."""
    assert main(cli_args(mode, tmp)) == 0
    return sha256(tmp / "joins.csv"), sha256(tmp / "solution.txt")


def record_order(pairs) -> np.ndarray:
    """Positions of the distinct-query pairs that list, right record by
    right record, each record's query's pairs: the cross-table pairs as
    blocking flattened them, one copy per record."""
    counts = np.bincount(pairs.lr_right, minlength=int(pairs.query.max()) + 1)
    starts = np.cumsum(counts) - counts
    ranges = [np.arange(starts[q], starts[q] + counts[q]) for q in pairs.query.tolist()]
    return np.concatenate(ranges).astype(np.int64)


def distance_digest(mode: str, tables=None) -> str:
    """Digest of the distances ``prepare_columns`` computes for a mode's
    input over the full function space, column by column, with the
    per-column string ``tables`` of a search passed in.  The cross-table
    distances, computed per distinct query, are hashed in record order, one
    column per right record's pair."""
    L, R = golden_inputs(mode)
    columns = ("name",) if mode == "run" else L.columns
    fns = enumerate_function_space()
    prep = prepare_columns(L, R, columns, fns, tables=tables)
    order = record_order(prep.pairs)
    digest = hashlib.sha256()
    for c in columns:
        for matrix in (prep.d_lr[c][:, order], prep.d_ll[c]):
            digest.update(matrix.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


def token_digest() -> str:
    """Digest of both tokenizers' output over the column strings of the
    "run" and "run-multi" inputs: per column and tokenizer, the vocabulary
    as JSON token strings, then sizes, tokens and counts as int64 bytes."""
    digest = hashlib.sha256()
    for mode in ("run", "run-multi"):
        L, R = golden_inputs(mode)
        for c in ("name",) if mode == "run" else L.columns:
            corpus = L.column_values(c) + R.column_values(c)
            strings = distances.ColumnStrings(enumerate_function_space(), corpus).strings
            for tokenizer in ("3G", "SP"):
                vocab, *csr = tokenize_strings(strings, tokenizer)
                digest.update(json.dumps(token_strings(vocab)).encode())
                for arr in csr:
                    digest.update(arr.astype("<i8").tobytes())
    return digest.hexdigest()


def blocking_digests(mode: str) -> tuple[str, str]:
    """Digests of the flattened blocked pairs of a mode's input and of their
    blocking scores."""
    L, R = golden_inputs(mode)
    columns = ("name",) if mode != "run-multi" else L.columns
    idx = build_index(L, R, columns, 1.0)
    pairs = flatten_index(idx)
    lr_by_id, ll_by_id = index_by_id(idx)
    lr = {(rid, lid): s for rid, cands in lr_by_id.items() for lid, s in cands}
    ll = {(a, b): s for a, cands in ll_by_id.items() for b, s in cands}
    lids, rids = pairs.left_ids, pairs.right_ids
    scores = [lr[rids[r], lids[l]] for r, l in zip(pairs.lr_right, pairs.lr_left)]
    scores += [ll[lids[a], lids[b]] for a, b in zip(pairs.ll_a, pairs.ll_b)]
    pair_digest = hashlib.sha256()
    for arr in (pairs.lr_right, pairs.lr_left, pairs.ll_a, pairs.ll_b):
        pair_digest.update(arr.astype("<i8").tobytes())
    score_bytes = np.array(scores, dtype="<f8").tobytes()
    return pair_digest.hexdigest(), hashlib.sha256(score_bytes).hexdigest()


@pytest.mark.parametrize("mode", ["run", "run-ties", "run-multi"])
def test_blocking_unchanged(mode):
    assert blocking_digests(mode) == GOLDEN_BLOCKING[mode]


def test_tokens_unchanged():
    assert token_digest() == GOLDEN_TOKENS


def test_distances_unchanged():
    assert distance_digest("run") == GOLDEN_DISTANCES["run"]


def test_multi_column_distances_unchanged(monkeypatch):
    assert distance_digest("run-multi") == GOLDEN_DISTANCES["run-multi"]

    # the same digest when the full set's rows come from the tables the
    # singleton sets filled, as solve_multi prepares them; distance_matrix
    # receives every pair, so the spy counts the pairs the kernels compute,
    # and goes in after the singletons
    L, R = golden_inputs("run-multi")
    fns = enumerate_function_space()
    tables = {}
    for c in L.columns:
        prepare_columns(L, R, (c,), fns, tables=tables)
    computed = []

    def spy(strings, a, b, gather, char_rows=distances._char_rows):
        computed.append(len(next(iter(gather.values()))))
        return char_rows(strings, a, b, gather)

    monkeypatch.setattr(distances, "_char_rows", spy)
    assert distance_digest("run-multi", tables) == GOLDEN_DISTANCES["run-multi"]
    # some pairs were gathered, and some computed
    pairs = flatten_index(build_index(L, R, L.columns, 1.0))
    total = len(L.columns) * (len(pairs.lr_right) + len(pairs.ll_a))
    assert 0 < sum(computed) < total


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
    for mode in GOLDEN:
        print("blocking", mode, *blocking_digests(mode))
    print("tokens", token_digest())


NUMPY_MA_PROBE = """
import json, sys
from fuzzyjoin.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) == 0
print("numpy.ma" in sys.modules, "numpy.random" in sys.modules)
"""


def test_golden_pipelines_never_import_numpy_ma(tmp_path):
    # a plain np.unique or np.isin imports numpy.ma, about 12 ms of CPU in a
    # fresh process; the job path calls neither.  numpy.random adds about
    # 5.7 MB resident and 9 ms; nothing in a run draws at random
    commands = []
    for mode in ("run", "run-multi"):
        (tmp_path / mode).mkdir()
        commands.append(cli_args(mode, tmp_path / mode))
    src = str(Path(distances.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "False"]
