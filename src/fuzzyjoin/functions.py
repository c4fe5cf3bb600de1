"""Join functions, configurations, and solutions.

A join function is a 4-tuple (preprocessing, tokenizer, token weights,
distance kind) that maps a pair of strings to a distance in [0, 1].  The
space of them is closed: every kind is one the library computes itself, so
a serialized solution names nothing a reader must supply.  A configuration
adds a cut-off threshold; a solution is an ordered union of configurations
plus a column-weight vector (a single 1.0 in single-column mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

PREPROCESS_OPTIONS = ("L", "L+S", "L+RP", "L+S+RP")
TOKENIZERS = ("3G", "SP")
CHAR_DISTANCES = ("ED", "JW")
SET_DISTANCES = ("JD", "CD", "DD", "ID", "MD", "CJD", "CCD", "CDD")
WEIGHT_SCHEMES = ("EW", "IDFW")

NONE = "NONE"


@dataclass(frozen=True)
class JoinFunction:
    """One point in the (P, T, W, D) space of distance functions.

    Character-based kinds (ED, JW) operate on the preprocessed strings and
    carry no tokenizer or weight scheme; set-based kinds operate on weighted
    token multisets.
    """

    preprocess: str
    tokenizer: str
    weights: str
    distance: str

    def __post_init__(self):
        if self.preprocess not in PREPROCESS_OPTIONS:
            raise ValueError(f"unknown preprocess option {self.preprocess!r}")
        if self.distance in CHAR_DISTANCES:
            if self.tokenizer != NONE or self.weights != NONE:
                raise ValueError(
                    f"{self.distance} requires tokenizer=NONE and weights=NONE"
                )
        elif self.distance in SET_DISTANCES:
            if self.tokenizer not in TOKENIZERS:
                raise ValueError(
                    f"set-based {self.distance} requires tokenizer in {TOKENIZERS}"
                )
            if self.weights not in WEIGHT_SCHEMES:
                raise ValueError(
                    f"set-based {self.distance} requires weights in {WEIGHT_SCHEMES}"
                )
        else:
            raise ValueError(f"unknown distance kind {self.distance!r}")

    @property
    def is_set_based(self) -> bool:
        return self.distance in SET_DISTANCES

    def label(self) -> str:
        return (
            f"preprocess={self.preprocess} tokenizer={self.tokenizer} "
            f"weights={self.weights} distance={self.distance}"
        )


@dataclass(frozen=True)
class FunctionSpaceOptions:
    """Which axis values to enumerate.  Defaults give the full 136-function space."""

    preprocess: tuple[str, ...] = PREPROCESS_OPTIONS
    tokenizers: tuple[str, ...] = TOKENIZERS
    weights: tuple[str, ...] = WEIGHT_SCHEMES
    char_distances: tuple[str, ...] = CHAR_DISTANCES
    set_distances: tuple[str, ...] = SET_DISTANCES

    @classmethod
    def reduced24(cls) -> "FunctionSpaceOptions":
        """Small 24-function space: full P/T/W axes, distances {ED, JW, JD}."""
        return cls(set_distances=("JD",))


SPACE_PRESETS = {
    "full": FunctionSpaceOptions(),
    "reduced24": FunctionSpaceOptions.reduced24(),
}


def enumerate_function_space(
    options: FunctionSpaceOptions | None = None,
) -> list[JoinFunction]:
    """Enumerate the join-function space, deterministically and duplicate-free.

    Character-based functions come first (preprocess x char kind), then the
    set-based block (preprocess x tokenizer x weights x set kind).
    """
    opts = options or FunctionSpaceOptions()

    def gen() -> Iterator[JoinFunction]:
        for p in opts.preprocess:
            for d in opts.char_distances:
                yield JoinFunction(p, NONE, NONE, d)
        for p in opts.preprocess:
            for t in opts.tokenizers:
                for w in opts.weights:
                    for d in opts.set_distances:
                        yield JoinFunction(p, t, w, d)

    return list(gen())


@dataclass(frozen=True)
class Configuration:
    """A join function plus a distance cut-off threshold."""

    function: JoinFunction
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class Solution:
    """An ordered union of configurations (order = greedy insertion order).

    ``column_weights`` always sums to 1; single-column solutions carry the
    one-element vector (1.0,).  ``columns`` names the joined column pairs so
    a serialized solution can be re-applied, one per weight when given.
    """

    configs: tuple[Configuration, ...]
    column_weights: tuple[float, ...] = (1.0,)
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(w >= 0 for w in self.column_weights):
            raise ValueError("column weights must be nonnegative numbers")
        if abs(sum(self.column_weights) - 1.0) > 1e-9:
            raise ValueError(
                f"column weights sum to {sum(self.column_weights)}, expected 1"
            )
        if self.columns and len(self.columns) != len(self.column_weights):
            raise ValueError(
                f"{len(self.columns)} columns but {len(self.column_weights)} column weights"
            )

    def __len__(self) -> int:
        return len(self.configs)


@dataclass(frozen=True)
class Assignment:
    """One joined right record: its left match, estimated precision, and
    the index (into Solution.configs) of the configuration responsible."""

    left_id: str
    precision: float
    config_index: int


@dataclass(frozen=True)
class JoinResult:
    """Many-to-one join output: right id -> Assignment.

    Right records with no join are simply absent from ``assignments``.
    """

    assignments: dict[str, Assignment]

    def __len__(self) -> int:
        return len(self.assignments)


# --- solution (de)serialization -------------------------------------------
#
# Human-readable line format, one configuration per line; floats written
# with repr() so the round trip is exact.

def dump_solution(solution: Solution) -> str:
    lines = ["# fuzzyjoin solution v1"]
    lines.append("columns: " + ",".join(solution.columns))
    lines.append(
        "column_weights: " + ",".join(repr(w) for w in solution.column_weights)
    )
    for cfg in solution.configs:
        lines.append(f"config: {cfg.function.label()} threshold={cfg.threshold!r}")
    return "\n".join(lines) + "\n"


def save_solution(solution: Solution, path: str | Path) -> None:
    Path(path).write_text(dump_solution(solution), encoding="utf-8")


# the fields of a config line, as dump_solution writes them
_CONFIG_FIELDS = ("preprocess", "tokenizer", "weights", "distance", "threshold")


def parse_solution(text: str) -> Solution:
    """The solution ``dump_solution`` wrote.  A line that does not make one
    raises ValueError naming it: a config line holds exactly the fields
    ``_CONFIG_FIELDS``, and a columns or weights error names the later of
    those two lines."""
    columns: tuple[str, ...] = ()
    weights: tuple[float, ...] = (1.0,)
    configs: list[Configuration] = []
    header_no = 0  # the later of the columns and column_weights lines
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("columns:"):
                body = line[len("columns:"):].strip()
                columns = tuple(body.split(",")) if body else ()
                if not all(columns) or len(set(columns)) < len(columns):
                    raise ValueError("column names must be non-empty and distinct")
                header_no = line_no
            elif line.startswith("column_weights:"):
                body = line[len("column_weights:"):].strip()
                weights = tuple(float(w) for w in body.split(","))
                header_no = line_no
            elif line.startswith("config:"):
                items = [kv.partition("=") for kv in line[len("config:"):].split()]
                fields = {key: value for key, sep, value in items if sep}
                if len(fields) != len(items) or fields.keys() != set(_CONFIG_FIELDS):
                    raise ValueError(f"a config holds exactly {', '.join(_CONFIG_FIELDS)}")
                threshold = float(fields.pop("threshold"))
                configs.append(Configuration(JoinFunction(**fields), threshold))
            else:
                raise ValueError("cannot parse")
        except ValueError as exc:
            raise ValueError(f"solution line {line_no}: {exc}: {raw!r}") from None
    try:
        return Solution(tuple(configs), weights, columns)
    except ValueError as exc:
        raise ValueError(f"solution line {header_no}: {exc}") from None


def load_solution(path: str | Path) -> Solution:
    return parse_solution(Path(path).read_text(encoding="utf-8"))
