"""Ground-truth scoring, curve metrics, recall bounds, and benchmark data.

Nothing here feeds back into the join search; these utilities measure a
produced join against known truth, bound what any configuration could
achieve, and generate reproducible synthetic datasets for the benchmark
and the tests.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import JoinFunction, JoinResult
from .solver import prepare_columns
from .tables import Record, Table, make_table


@dataclass(frozen=True)
class GroundTruth:
    """True matches: right id -> left id.  Rights absent from the mapping
    have no true match."""

    matches: dict[str, str]

    def total_true(self) -> int:
        return len(self.matches)


@dataclass
class MetricsReport:
    precision: float
    recall_absolute: int
    recall_normalized: float
    n_assigned: int
    n_correct: int
    pr_auc: float | None = None
    zero_coverage: bool = False

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall_absolute": self.recall_absolute,
            "recall_normalized": self.recall_normalized,
            "n_assigned": self.n_assigned,
            "n_correct": self.n_correct,
            "pr_auc": self.pr_auc,
            "zero_coverage": self.zero_coverage,
        }


def score(result: JoinResult, gt: GroundTruth) -> MetricsReport:
    """Precision and recall of a join against ground truth.

    Precision is the correct fraction of assigned rights (reported as 1
    with the zero-coverage flag when nothing was assigned); absolute recall
    counts correct assignments; normalized recall divides by the number of
    rights that have a true match.
    """
    n_assigned = len(result.assignments)
    n_correct = sum(
        1
        for rid, a in result.assignments.items()
        if gt.matches.get(rid) == a.left_id
    )
    total_true = gt.total_true()
    return MetricsReport(
        precision=n_correct / n_assigned if n_assigned else 1.0,
        recall_absolute=n_correct,
        recall_normalized=n_correct / total_true if total_true else 0.0,
        n_assigned=n_assigned,
        n_correct=n_correct,
        zero_coverage=n_assigned == 0,
    )


def adjusted_recall(
    curve: Sequence[tuple[float, float]], target_precision: float
) -> float:
    """Recall of the curve point whose precision is closest to, but not
    greater than, the target; 0 when no point qualifies.  Among points at
    the qualifying precision, the largest recall is reported."""
    qualifying = [(p, r) for p, r in curve if p <= target_precision]
    if not qualifying:
        return 0.0
    best_p = max(p for p, _ in qualifying)
    return max(r for p, r in qualifying if p == best_p)


def pr_auc(scored_pairs: Sequence[tuple[float, bool]], total_true: int) -> float:
    """Area under the precision-recall curve of a scored pair ranking.

    Thresholds sweep the distinct scores descending (higher score = more
    confident); the curve is anchored at recall 0 with the precision of the
    first point and integrated by the trapezoid rule.  A NaN score, which
    ranks nowhere, raises ValueError.
    """
    if total_true < 1:
        raise ValueError("total_true must be at least 1")
    if np.isnan([s for s, _ in scored_pairs]).any():
        raise ValueError("a NaN score has no rank")
    if not scored_pairs:
        return 0.0
    ranked = sorted(scored_pairs, key=lambda sc: -sc[0])
    points: list[tuple[float, float]] = []  # (recall, precision)
    correct = 0
    i = 0
    n = len(ranked)
    while i < n:
        j = i
        while j < n and ranked[j][0] == ranked[i][0]:
            correct += ranked[j][1]
            j += 1
        points.append((correct / total_true, correct / j))
        i = j
    area = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for r, p in points:
        area += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return area


def recall_upper_bound(
    L: Table,
    R: Table,
    column: str,
    gt: GroundTruth,
    functions: Sequence[JoinFunction],
    beta: float = 1.0,
) -> float:
    """Fraction of true matches whose left record is nearest to its right
    record under at least one join function, over blocked candidates.

    Candidates and distances come from ``solver.prepare_columns`` over the
    column, without negative rules, so this bounds anything the
    configuration search could produce; thresholds are irrelevant.
    """
    if gt.total_true() == 0:
        return 0.0
    prepared = prepare_columns(L, R, (column,), functions, beta, use_negative_rules=False)
    pairs = prepared.pairs
    if len(pairs.lr_right) == 0:
        return 0.0
    d_lr = prepared.d_lr[column]
    _, starts, counts = np.unique(pairs.lr_right, return_index=True, return_counts=True)
    seg_min = np.minimum.reduceat(d_lr, starts, axis=1)
    # pairs whose left is nearest to their query under some function
    feasible = (d_lr == np.repeat(seg_min, counts, axis=1)).any(axis=0)
    n_left = len(pairs.left_ids)
    keys = pairs.lr_right[feasible] * n_left + pairs.lr_left[feasible]

    right_pos = {rid: i for i, rid in enumerate(pairs.right_ids)}
    left_pos = {lid: i for i, lid in enumerate(pairs.left_ids)}
    truth = np.array(
        [
            pairs.query[right_pos[rid]] * n_left + left_pos[lid]
            for rid, lid in gt.matches.items()
            if rid in right_pos and lid in left_pos
        ],
        dtype=np.int64,
    )
    return int(np.isin(truth, keys).sum()) / gt.total_true()


# --- synthetic data ----------------------------------------------------------

_YEARS = [str(y) for y in range(1990, 2020)]
_PLACES = [
    "oakdale", "riverton", "maplewood", "lakeside", "fairview", "brookfield",
    "ashland", "granville", "westfield", "clayton", "marion", "dover",
    "hartford", "camden", "elmira", "pinehurst", "newberg", "stockton",
    "berkley", "monroe", "salem", "kingston", "weston", "hampton",
]
_MASCOTS = [
    "tigers", "badgers", "falcons", "wolverines", "cougars", "panthers",
    "spartans", "hornets", "bulldogs", "raiders", "wildcats", "mustangs",
    "cardinals", "chargers", "pioneers", "huskies",
]
_SPORTS = ["football", "baseball", "basketball", "soccer", "hockey", "volleyball"]
_APPEND_WORDS = ["club", "the", "official", "varsity", "assoc"]

# for rows guaranteed to have no true match: a fully disjoint word pool
_ALT_COLORS = ["crimson", "viridian", "cobalt", "umber", "saffron", "indigo"]
_ALT_NOUNS = ["archive", "museum", "archipelago", "observatory", "cannery", "foundry"]
_ALT_NAMES = [
    "zephyr", "quillon", "extant", "jubilee", "korvax", "plinth",
    "marrow", "glyph", "vortex", "quartz",
]


@dataclass(frozen=True)
class PerturbationProfile:
    """Independent per-variant perturbation rates."""

    typo: float = 0.0
    drop_token: float = 0.0
    append_token: float = 0.0
    case_noise: float = 0.0
    punct_noise: float = 0.0


MIXED_PROFILE = PerturbationProfile(
    typo=0.35, drop_token=0.25, append_token=0.20, case_noise=0.30, punct_noise=0.30
)
TYPO_ONLY_PROFILE = PerturbationProfile(typo=1.0)
DROP_ONLY_PROFILE = PerturbationProfile(drop_token=1.0)


def _typo(token: str, rng: np.random.Generator) -> str:
    """One character edit; only applied to alphabetic tokens."""
    letters = string.ascii_lowercase
    i = int(rng.integers(0, len(token)))
    op = rng.choice(["sub", "del", "ins", "swap"])
    if op == "del" and len(token) > 2:
        return token[:i] + token[i + 1 :]
    if op == "ins":
        return token[:i] + rng.choice(list(letters)) + token[i:]
    if op == "swap" and len(token) > 1:
        i = min(i, len(token) - 2)
        return token[:i] + token[i + 1] + token[i] + token[i + 2 :]
    c = rng.choice([x for x in letters if x != token[i]])
    return token[:i] + c + token[i + 1 :]


def perturb_value(value: str, profile: PerturbationProfile, rng: np.random.Generator) -> str:
    tokens = value.split()
    if rng.random() < profile.drop_token and len(tokens) > 1:
        del tokens[int(rng.integers(0, len(tokens)))]
    if rng.random() < profile.append_token:
        pos = int(rng.integers(0, len(tokens) + 1))
        tokens.insert(pos, str(rng.choice(_APPEND_WORDS)))
    if rng.random() < profile.typo:
        alpha_positions = [i for i, t in enumerate(tokens) if t.isalpha()]
        if alpha_positions:
            i = int(rng.choice(alpha_positions))
            tokens[i] = _typo(tokens[i], rng)
    if rng.random() < profile.case_noise:
        tokens = [
            t.capitalize() if rng.random() < 0.5 else t.upper() if rng.random() < 0.2 else t
            for t in tokens
        ]
    out = " ".join(tokens)
    if rng.random() < profile.punct_noise:
        style = rng.choice(["comma", "period", "paren"])
        if style == "comma" and len(tokens) > 1:
            out = tokens[0] + ", " + " ".join(tokens[1:])
        elif style == "period":
            out = out + "."
        else:
            k = int(rng.integers(0, len(tokens)))
            tokens2 = list(tokens)
            tokens2[k] = "(" + tokens2[k] + ")"
            out = " ".join(tokens2)
    return out


def _distinct_entity_names(n: int, rng: np.random.Generator) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        name = " ".join(
            [
                str(rng.choice(_YEARS)),
                str(rng.choice(_PLACES)),
                str(rng.choice(_MASCOTS)),
                str(rng.choice(_SPORTS)),
                "team",
            ]
        )
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _unmatched_value(rng: np.random.Generator) -> str:
    return " ".join(
        [
            str(rng.choice(_ALT_COLORS)),
            str(rng.choice(_ALT_NAMES)),
            str(rng.choice(_ALT_NOUNS)),
            "society",
        ]
    )


def _rows_at_rate(rate: float, n: int, name: str) -> int:
    """How many rows to add to ``n`` rows so that ``rate`` of the whole is
    added ones; ``name`` is the rate's argument, named when it is not in
    [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {rate}")
    return round(rate / (1.0 - rate) * n)


def generate_synthetic(
    n_left: int = 200,
    profile: PerturbationProfile = MIXED_PROFILE,
    seed: int = 0,
    unmatched_rate: float = 0.0,
    max_variants: int = 3,
) -> tuple[Table, Table, GroundTruth]:
    """Reference table of templated entity names, a query table of perturbed
    variants (0..max_variants per entity), and the provenance ground truth.

    ``unmatched_rate``, in [0, 1), is the approximate fraction of query rows
    drawn from a disjoint vocabulary, with no true match.
    """
    if n_left < 10:
        raise ValueError("n_left must be at least 10")
    rng = np.random.default_rng(seed)
    left_names = _distinct_entity_names(n_left, rng)
    left_set = set(left_names)
    left_rows = [(f"L{i:04d}", (name,)) for i, name in enumerate(left_names)]

    right_rows: list[tuple[str, tuple[str, ...]]] = []
    matches: dict[str, str] = {}
    counter = 0
    for (lid, (name,)) in left_rows:
        for _ in range(int(rng.integers(0, max_variants + 1))):
            variant = None
            for _attempt in range(8):
                candidate = perturb_value(name, profile, rng)
                if candidate == name or candidate not in left_set:
                    variant = candidate
                    break
            if variant is None:
                continue
            rid = f"R{counter:05d}"
            counter += 1
            right_rows.append((rid, (variant,)))
            matches[rid] = lid
    for _ in range(_rows_at_rate(unmatched_rate, len(right_rows), "unmatched_rate")):
        rid = f"R{counter:05d}"
        counter += 1
        right_rows.append((rid, (_unmatched_value(rng),)))
    order = rng.permutation(len(right_rows))
    right_rows = [right_rows[i] for i in order]

    L = make_table(("name",), left_rows, role="reference")
    R = make_table(("name",), right_rows, role="query")
    return L, R, GroundTruth(matches)


def random_string_values(
    n: int, rng: np.random.Generator, min_len: int = 10, max_len: int = 50
) -> list[str]:
    letters = np.array(list(string.ascii_lowercase))
    return [
        "".join(rng.choice(letters, size=int(rng.integers(min_len, max_len + 1))))
        for _ in range(n)
    ]


def add_random_column(
    table: Table, seed: int = 0, column: str = "noise",
    min_len: int = 10, max_len: int = 50,
) -> Table:
    """Copy of a table with an extra column of uniformly random strings."""
    rng = np.random.default_rng(seed)
    values = random_string_values(len(table), rng, min_len, max_len)
    records = tuple(
        Record(rec.id, rec.values + (v,)) for rec, v in zip(table.records, values)
    )
    return Table(table.columns + (column,), records, table.role)


def _random_word(rng: np.random.Generator, length: int) -> str:
    letters = np.array(list(string.ascii_lowercase))
    return "".join(rng.choice(letters, size=length))


def generate_disjoint_tables(
    n_left: int = 500, n_right: int = 500, seed: int = 0
) -> tuple[Table, Table]:
    """Two tables of random token strings over disjoint vocabularies; any
    join produced between them is a false positive."""
    rng = np.random.default_rng(seed)
    vocab_l = {_random_word(rng, int(rng.integers(4, 9))) for _ in range(400)}
    vocab_r_raw = {_random_word(rng, int(rng.integers(4, 9))) for _ in range(400)}
    vocab_r = sorted(vocab_r_raw - vocab_l)
    vocab_l = sorted(vocab_l)

    def rows(prefix: str, vocab: list[str], n: int):
        out = []
        for i in range(n):
            k = int(rng.integers(3, 7))
            out.append((f"{prefix}{i:05d}", (" ".join(rng.choice(vocab, size=k)),)))
        return out

    L = make_table(("name",), rows("L", vocab_l, n_left), role="reference")
    R = make_table(("name",), rows("R", vocab_r, n_right), role="query")
    return L, R


def inject_irrelevant_rows(
    R: Table, rate: float, seed: int = 0, column: str = "name"
) -> Table:
    """Add disjoint-vocabulary rows until `rate` of the table is irrelevant."""
    n_new = _rows_at_rate(rate, len(R), "rate")
    rng = np.random.default_rng(seed)
    col_idx = R.column_index(column)
    extra = []
    for i in range(n_new):
        values = [""] * len(R.columns)
        values[col_idx] = _unmatched_value(rng)
        extra.append(Record(f"IRR{i:06d}", tuple(values)))
    return Table(R.columns, R.records + tuple(extra), R.role)
