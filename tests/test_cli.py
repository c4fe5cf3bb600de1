import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyjoin
from conftest import ulp_over_one_tables, write_gt_csv, write_table_csv
from fuzzyjoin import (
    build_index,
    interpolate,
    enumerate_function_space,
    generate_synthetic,
    generate_disjoint_tables,
    load_solution,
    load_table,
)
from fuzzyjoin import multicolumn, pipeline, solver
from fuzzyjoin.cli import main
from fuzzyjoin.functions import SPACE_PRESETS
from fuzzyjoin.tables import Record, Table


@pytest.fixture
def synthetic_csvs(tmp_path):
    L, R, gt = generate_synthetic(n_left=40, seed=2, unmatched_rate=0.2)
    left = write_table_csv(L, tmp_path / "left.csv")
    right = write_table_csv(R, tmp_path / "right.csv")
    gt_path = write_gt_csv(gt.matches, tmp_path / "gt.csv")
    return left, right, gt_path


def run_args(tmp_path, left, right, **extra):
    args = [
        "run",
        "--left", str(left),
        "--right", str(right),
        "--column", "name",
        "--out", str(tmp_path / "joins.csv"),
        "--solution", str(tmp_path / "solution.txt"),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def assert_pair_counts_over_records(manifest, left, right):
    """The manifest counts cross-table pairs over right records, as
    blocking gives them, though the solve measures each distinct query
    once; ``distinct_queries`` counts the right's distinct value tuples in
    the selected columns."""
    columns = manifest["selected_columns"]
    L = load_table(left, "id")
    R = load_table(right, "id", role="query")
    counts = manifest["pair_counts"]
    blocked = len(build_index(L, R, columns).lr_pairs.query)
    assert counts["lr_pairs"] + counts["lr_dropped_by_rules"] == blocked
    distinct = len(set(zip(*(R.column_values(c) for c in columns))))
    assert counts["distinct_queries"] == distinct <= manifest["n_right"]


def test_run_produces_artifacts(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    code = main(
        run_args(tmp_path, left, right, manifest=tmp_path / "m.json")
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "joined" in out
    assert "columns selected: name=1.00" in out

    with open(tmp_path / "joins.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {
        "right_id", "left_id", "estimated_precision", "config_index"
    }
    solution = load_solution(tmp_path / "solution.txt")
    assert len(solution.configs) > 0
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert "seed" not in manifest["config"]
    assert set(manifest["timings"]) >= {"ingest", "blocking", "distances", "greedy"}
    assert manifest["pair_counts"]["lr_pairs"] > 0
    assert_pair_counts_over_records(manifest, left, right)


def test_run_deterministic_bytes(tmp_path, synthetic_csvs):
    # two runs in this process, and one in a fresh interpreter whose string
    # hashes are seeded differently
    left, right, _ = synthetic_csvs

    def args(suffix):
        return [
            "run",
            "--left", str(left),
            "--right", str(right),
            "--column", "name",
            "--out", str(tmp_path / f"joins_{suffix}.csv"),
            "--solution", str(tmp_path / f"sol_{suffix}.txt"),
        ]

    for suffix in "ab":
        assert main(args(suffix)) == 0
    src = str(Path(fuzzyjoin.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyjoin.cli", *args("c")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    j = [(tmp_path / f"joins_{s}.csv").read_bytes() for s in "abc"]
    s = [(tmp_path / f"sol_{s}.txt").read_bytes() for s in "abc"]
    assert j[0] == j[1] == j[2]
    assert s[0] == s[1] == s[2]


IMPORT_PROBE = """
import os
import fuzzyjoin
task = "/proc/self/task"
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir(task)) if os.path.isdir(task) else 1)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_keeps_numpy_to_one_blas_thread(preset):
    # the engine makes no BLAS call, so importing it starts no idle
    # OpenBLAS workers; a user's own setting is kept
    src = str(Path(fuzzyjoin.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    setting, threads = proc.stdout.split()
    assert setting == (preset or "1")
    if preset is None:
        assert threads == "1"


def test_unsatisfiable_target_warns_but_succeeds(tmp_path, capsys):
    # precision must strictly exceed the target, so tau = 1.0 joins nothing
    L, R = generate_disjoint_tables(20, 20, seed=3)
    left = write_table_csv(L, tmp_path / "l.csv")
    right = write_table_csv(R, tmp_path / "r.csv")
    code = main(run_args(tmp_path, left, right, precision=1.0))
    assert code == 0
    assert "warning" in capsys.readouterr().err
    with open(tmp_path / "joins.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_bad_csv_exits_3(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    bad = tmp_path / "bad.csv"
    bad.write_text("id,name\n7,a\n7,b\n", encoding="utf-8")
    code = main(run_args(tmp_path, bad, right))
    assert code == 3
    assert "ingest" in capsys.readouterr().err


def test_non_utf8_csv_exits_3(tmp_path, synthetic_csvs, capsys):
    _, right, _ = synthetic_csvs
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("id,name\n1,caf\u00e9\n".encode("latin-1"))
    code = main(run_args(tmp_path, bad, right))
    assert code == 3
    err = capsys.readouterr().err
    assert "ingest" in err
    assert "latin1.csv" in err and "byte 13" in err
    assert "Traceback" not in err


def test_config_error_exits_2(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    code = main(run_args(tmp_path, left, right, precision=1.5))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # an empty --columns value, or an empty name in it
    for columns in ("", "name,", ",name"):
        code = main(
            [
                "run-multi",
                "--left", str(left),
                "--right", str(right),
                "--columns", columns,
                "--out", str(tmp_path / "joins.csv"),
                "--solution", str(tmp_path / "sol.txt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "non-empty" in err
    assert not (tmp_path / "joins.csv").exists()


def test_missing_column_exits_3(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    code = main(run_args(tmp_path, left, right, column="nope"))
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error in stage solve") and "'nope'" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_run_multi_with_weights_an_ulp_over_one_exits_0(tmp_path, capsys, monkeypatch):
    # the first trial over all three columns weighs them (0.64, 0.16, 0.2),
    # whose float sum once made the top threshold 1.0000000000000002: every
    # configuration of that trial's table, picked or not, must be a valid
    # one, up to threshold 1.0
    L, R = ulp_over_one_tables()
    weights, tables = [], []  # per trial

    def solve_spy(*args, run=multicolumn.solve_from_distances):
        weights.append(args[4])
        return run(*args)

    def precompute_spy(*args, run=solver.precompute_config_table):
        tables.append(run(*args))
        return tables[-1]

    monkeypatch.setattr(multicolumn, "solve_from_distances", solve_spy)
    monkeypatch.setattr(solver, "precompute_config_table", precompute_spy)
    code = main(
        [
            "run-multi",
            "--left", str(write_table_csv(L, tmp_path / "left.csv")),
            "--right", str(write_table_csv(R, tmp_path / "right.csv")),
            "--weight-steps", "5",
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "solution.txt"),
        ]
    )
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    solution = load_solution(tmp_path / "solution.txt")
    assert solution.columns == ("a", "b", "c") and solution.configs
    table = tables[weights.index(interpolate(interpolate((1.0, 0.0, 0.0), 1, 0.2), 2, 0.2))]
    assert max(table.configuration(c).threshold for c in range(table.n_configs)) == 1.0


def test_seed_flag_exits_2(tmp_path, synthetic_csvs, capsys):
    # greedy breaks ties by configuration order, so there is no seed to set
    left, right, _ = synthetic_csvs
    with pytest.raises(SystemExit) as exc:
        main(run_args(tmp_path, left, right, seed=0))
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not (tmp_path / "joins.csv").exists()


@pytest.mark.parametrize("steps", ["10001", "100000000000"])
def test_oversized_step_count_exits_2(tmp_path, synthetic_csvs, capsys, steps):
    # rejected before the work, not by an allocation of (functions x steps)
    left, right, _ = synthetic_csvs
    code = main(run_args(tmp_path, left, right, steps=steps, manifest=tmp_path / "m.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"threshold steps must be in [1, 10000], got {steps}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.csv", "left.csv", "right.csv"]


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_non_finite_blocking_factor_exits_2(tmp_path, synthetic_csvs, capsys, beta):
    left, right, _ = synthetic_csvs
    code = main(run_args(tmp_path, left, right, blocking_factor=beta))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "blocking factor" in err


def test_multi_character_delimiter_exits_2(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    code = main(run_args(tmp_path, left, right, delimiter="ab"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "delimiter" in err


def test_duplicate_columns_exit_2(tmp_path, synthetic_csvs, capsys):
    left, right, _ = synthetic_csvs
    code = main(
        [
            "run-multi",
            "--left", str(left),
            "--right", str(right),
            "--columns", "name,name",
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "sol.txt"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "repeated column names ['name'] in ['name', 'name']" in err
    assert "Traceback" not in err


def test_oversized_weight_step_count_exits_2(tmp_path, synthetic_csvs, capsys, monkeypatch):
    # each round of the column search tries g - 1 weights per remaining
    # column: unchecked, a huge count runs a solve per weight and never ends
    loaded = []
    monkeypatch.setattr(pipeline, "load_table", lambda *args, **kw: loaded.append(args))
    left, right, _ = synthetic_csvs
    code = main(
        [
            "run-multi",
            "--left", str(left),
            "--right", str(right),
            "--weight-steps", "1001",
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "sol.txt"),
        ]
    )
    assert code == 2 and loaded == []
    err = capsys.readouterr().err
    assert "config error: weight steps must be in [2, 1000], got 1001" in err
    assert "Traceback" not in err
    assert not (tmp_path / "joins.csv").exists()


@pytest.mark.parametrize("flag", ["out", "solution", "manifest", "dump_negative_rules"])
def test_missing_output_directory_exits_2(tmp_path, synthetic_csvs, capsys, flag):
    left, right, _ = synthetic_csvs
    missing = tmp_path / "nodir" / "artifact"
    code = main(run_args(tmp_path, left, right, **{flag: missing}))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(missing.parent) in err
    assert not (tmp_path / "joins.csv").exists()  # rejected before any work


def test_dump_negative_rules(tmp_path, synthetic_csvs):
    left, right, _ = synthetic_csvs
    rules_path = tmp_path / "rules.tsv"
    code = main(
        run_args(tmp_path, left, right) + ["--dump-negative-rules", str(rules_path)]
    )
    assert code == 0
    lines = rules_path.read_text().splitlines()
    assert lines == sorted(lines)
    assert all("\t" in line for line in lines)


def test_eval_subcommand(tmp_path, synthetic_csvs, capsys):
    left, right, gt_path = synthetic_csvs
    assert main(run_args(tmp_path, left, right)) == 0
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--pred", str(tmp_path / "joins.csv"),
            "--gt", str(gt_path),
            "--json", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "precision:" in out
    payload = json.loads(report_path.read_text())
    assert 0.0 <= payload["precision"] <= 1.0
    assert payload["n_assigned"] > 0


def test_eval_with_scores_reports_pr_auc(tmp_path, synthetic_csvs):
    left, right, gt_path = synthetic_csvs
    assert main(run_args(tmp_path, left, right)) == 0
    scores_path = tmp_path / "scored.csv"
    with open(tmp_path / "joins.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["right_id", "left_id", "score"])
        for row in rows:
            writer.writerow([row["right_id"], row["left_id"], row["estimated_precision"]])
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--pred", str(tmp_path / "joins.csv"),
            "--gt", str(gt_path),
            "--scores", str(scores_path),
            "--json", str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["pr_auc"] is not None
    assert 0.0 <= payload["pr_auc"] <= 1.0


def test_eval_pred_row_without_left_id_is_no_join(tmp_path, capsys):
    # as in the ground truth, an empty left_id joins nothing
    pred, gt = tmp_path / "pred.csv", tmp_path / "gt.csv"
    pred.write_text("right_id,left_id\nr1,l1\nr2,\n", encoding="utf-8")
    gt.write_text("right_id,left_id\nr1,l1\nr2,\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["eval", "--pred", str(pred), "--gt", str(gt), "--json", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["n_assigned"] == 1
    assert payload["precision"] == 1.0
    assert "n_assigned: 1" in capsys.readouterr().out


PRED_HEADER = "right_id,left_id,estimated_precision,config_index\n"
LATIN1 = "right_id,left_id\nr1,caf\u00e9\n".encode("latin-1")


@pytest.mark.parametrize(
    "broken, content, code, message",
    [
        ("pred.csv", None, 3, "cannot open"),
        ("gt.csv", None, 3, "cannot open"),
        ("pred.csv", LATIN1, 3, "not UTF-8 at byte 23"),
        ("gt.csv", LATIN1, 3, "not UTF-8 at byte 23"),
        ("pred.csv", PRED_HEADER + "r1,l1,high,0\n", 3, "row 2: bad estimated_precision 'high'"),
        ("pred.csv", PRED_HEADER + "r1,l1,0.9,first\n", 3, "row 2: bad config_index 'first'"),
        ("scores.csv", "right_id,left_id,score\nr1,l1,x\n", 3, "row 2: bad score 'x'"),
        # a NaN score has no rank
        ("scores.csv", "right_id,left_id,score\nr1,l1,nan\nr2,l2,0.5\n", 3, "row 2: bad score 'nan'"),
        ("report.json", None, 2, "config error"),
        # each right record joins at most one left record
        ("pred.csv", PRED_HEADER + "r1,l1,0.9,0\nr1,l2,0.9,0\n", 3, "row 3: repeated right_id 'r1'"),
        ("gt.csv", "right_id,left_id\nr1,l1\nr1,l2\n", 3, "row 3: repeated right_id 'r1'"),
    ],
    ids=[
        "missing-pred", "missing-gt", "latin1-pred", "latin1-gt",
        "bad-precision", "bad-config-index", "bad-score", "nan-score", "json-missing-dir",
        "repeated-pred-right-id", "repeated-gt-right-id",
    ],
)
def test_eval_bad_input_exit_code(tmp_path, capsys, broken, content, code, message):
    files = {
        "pred.csv": PRED_HEADER + "r1,l1,0.9,0\n",
        "gt.csv": "right_id,left_id\nr1,l1\n",
        "scores.csv": "right_id,left_id,score\nr1,l1,0.9\n",
    }
    for name, text in files.items():
        if name != broken:
            (tmp_path / name).write_text(text, encoding="utf-8")
    if isinstance(content, bytes):
        (tmp_path / broken).write_bytes(content)
    elif content is not None:
        (tmp_path / broken).write_text(content, encoding="utf-8")
    report = tmp_path / ("nodir" if broken == "report.json" else "") / "report.json"
    args = ["eval", "--json", str(report)]
    for flag, name in (("pred", "pred.csv"), ("gt", "gt.csv"), ("scores", "scores.csv")):
        args += [f"--{flag}", str(tmp_path / name)]
    assert main(args) == code
    out, err = capsys.readouterr()
    assert message in err and "Traceback" not in err
    if code == 3:
        assert err.startswith("data error:") and broken in err
    assert out == "" and not report.exists()  # rejected before scoring


def test_run_multi_smoke(tmp_path, capsys):
    L, R, _ = generate_synthetic(n_left=25, seed=5, unmatched_rate=0.1)
    left = write_table_csv(L, tmp_path / "l.csv")
    right = write_table_csv(R, tmp_path / "r.csv")
    code = main(
        [
            "run-multi",
            "--left", str(left),
            "--right", str(right),
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "sol.txt"),
            "--manifest", str(tmp_path / "m.json"),
        ]
    )
    assert code == 0
    assert "columns selected" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["selected_columns"] == ["name"]


def test_run_multi_manifest_matches_run(tmp_path, synthetic_csvs):
    left, right, _ = synthetic_csvs
    assert main(run_args(tmp_path, left, right, manifest=tmp_path / "single.json")) == 0
    code = main(
        [
            "run-multi",
            "--left", str(left),
            "--right", str(right),
            "--out", str(tmp_path / "joins_multi.csv"),
            "--solution", str(tmp_path / "sol_multi.txt"),
            "--manifest", str(tmp_path / "multi.json"),
        ]
    )
    assert code == 0
    single = json.loads((tmp_path / "single.json").read_text())
    multi = json.loads((tmp_path / "multi.json").read_text())
    assert set(multi) == set(single)
    assert single["selected_columns"] == ["name"] and single["column_weights"] == [1.0]
    assert single["inner_invocations"] == len(single["trials"]) == 1
    assert set(multi["timings"]) == set(single["timings"])
    assert {"blocking", "negative_rules", "distances"} <= set(multi["timings"])
    assert set(multi["pair_counts"]) == set(single["pair_counts"])
    assert "lr_dropped_by_rules" in multi["pair_counts"]
    for manifest in (single, multi):
        # at least one table row per function, fewer than one per configuration
        n_fns = len(enumerate_function_space(SPACE_PRESETS[manifest["config"]["space_preset"]]))
        assert n_fns <= manifest["pair_counts"]["config_rows"] < n_fns * manifest["config"]["s"]
        assert_pair_counts_over_records(manifest, left, right)
    # every inner solve is a trial; each committed column is a history step
    assert len(multi["trials"]) == multi["inner_invocations"] > 0
    for trial in multi["trials"]:
        assert set(trial) == {"iteration", "column", "weights", "estimated_recall"}
        assert len(trial["weights"]) == len(multi["history"][0]["weights"])
    assert [step["column"] for step in multi["history"]] == multi["selected_columns"]
    assert multi["history"][-1]["estimated_recall"] == multi["estimated_recall"]
    for manifest in (single, multi):
        greedy = manifest["greedy"]
        assert greedy["stop_reason"] in ("precision_target", "no_gain", "exhausted")
        assert len(greedy["trace"]) == manifest["n_configs_selected"] > 0
        for step in greedy["trace"]:
            assert set(step) == {"config", "function", "threshold", "tp", "fp", "precision"}
            assert step["precision"] > manifest["config"]["tau"]
        last = greedy["trace"][-1]
        assert last["precision"] == manifest["estimated_precision"]


@pytest.mark.parametrize("command", ["run", "run-multi"])
def test_duplicate_reference_rows_reported(tmp_path, capsys, command):
    # 30 reference rows appended again under new ids: queries whose true
    # left was copied tie between the copies and join neither, so recall
    # falls; the manifest counts the 60 rows and the right records whose
    # minimum ties under every function, and both modes warn of each
    L, R, _ = generate_synthetic(n_left=300, seed=0, unmatched_rate=0.2)
    copies = tuple(Record(f"{rec.id}-copy", rec.values) for rec in L.records[:30])
    counts = {}
    for name, left_table in (("clean", L), ("copied", Table(L.columns, L.records + copies))):
        left = write_table_csv(left_table, tmp_path / f"{name}.csv")
        right = write_table_csv(R, tmp_path / "right.csv")
        args = [
            command,
            "--left", str(left),
            "--right", str(right),
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "solution.txt"),
            "--manifest", str(tmp_path / f"{name}.json"),
            "--space-preset", "reduced24",
        ]
        assert main(args + (["--column", "name"] if command == "run" else [])) == 0
        err = capsys.readouterr().err
        counts[name] = json.loads((tmp_path / f"{name}.json").read_text())["pair_counts"]
        warned = "60 reference rows have the same values in columns ['name']" in err
        assert warned == (name == "copied")
        tied = counts[name]["tied_queries"]
        assert (f"warning: {tied} right records have candidates but a tied minimum" in err) == (tied > 0)
    assert counts["clean"]["left_duplicate_rows"] == 0
    assert counts["copied"]["left_duplicate_rows"] == 60
    assert counts["clean"]["tied_queries"] == 0 < counts["copied"]["tied_queries"]



def test_run_multi_leaves_out_an_unnamed_column(tmp_path, capsys):
    # a header's empty cell names no column: if searched and selected, it
    # would be written as "columns: " and read back as no column at all
    L, R, _ = generate_synthetic(n_left=40, seed=2, unmatched_rate=0.2)

    def unnamed_copy(table):
        records = tuple(Record(r.id, r.values + r.values) for r in table.records)
        return Table(("",) + table.columns, records, table.role)

    code = main(
        [
            "run-multi",
            "--left", str(write_table_csv(unnamed_copy(L), tmp_path / "left.csv")),
            "--right", str(write_table_csv(unnamed_copy(R), tmp_path / "right.csv")),
            "--weight-steps", "4",
            "--out", str(tmp_path / "joins.csv"),
            "--solution", str(tmp_path / "solution.txt"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "left.csv").read_text().startswith("id,,name\n")
    assert load_solution(tmp_path / "solution.txt").columns == ("name",)
