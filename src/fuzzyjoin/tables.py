"""Tables and records: the string-valued inputs to every join.

A :class:`Table` is an immutable, column-schema'd collection of rows whose
cells are all strings.  One table acts as the reference side (``L``): it is
assumed to be curated and (near-)duplicate-free, and every query row joins
at most one reference row.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence


class DataError(Exception):
    """Malformed input data (bad CSV, duplicate ids, schema violations)."""


@dataclass(frozen=True)
class Record:
    """A single row: a stable string id plus one value per table column.

    Missing cells are represented as empty strings, never ``None``.
    """

    id: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    records: tuple[Record, ...]
    role: str = "reference"
    _by_id: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise DataError(f"duplicate column names: {list(self.columns)}")
        by_id = {}
        for rec in self.records:
            if len(rec.values) != len(self.columns):
                raise DataError(
                    f"record {rec.id!r} has {len(rec.values)} values, "
                    f"expected {len(self.columns)}"
                )
            if rec.id in by_id:
                raise DataError(f"duplicate record id {rec.id!r}")
            by_id[rec.id] = rec
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.records)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(
                f"column {name!r} not found; available: {list(self.columns)}"
            ) from None

    def get(self, record_id: str) -> Record:
        return self._by_id[record_id]

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def column_values(self, name: str) -> list[str]:
        """Values of one column, in record order."""
        i = self.column_index(name)
        return [rec.values[i] for rec in self.records]

    def joined_values(self, names: Sequence[str]) -> list[str]:
        """Per-record space-joined concatenation of several columns."""
        idx = [self.column_index(n) for n in names]
        return [" ".join(rec.values[i] for i in idx) for rec in self.records]


def make_table(
    columns: Iterable[str],
    rows: Iterable[tuple[str, Sequence[str]]],
    role: str = "reference",
) -> Table:
    """Build a Table from (id, values) pairs; convenience for tests/generators."""
    records = tuple(Record(rid, tuple(vals)) for rid, vals in rows)
    return Table(tuple(columns), records, role)


def read_text(path: str | Path) -> str:
    """Text of a UTF-8 file, without a byte-order mark; a file that cannot
    be read or decoded raises DataError naming it."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        # decoded whole, so a bad byte's offset is its offset in the file
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc


def load_table(
    path: str | Path,
    id_column: str,
    delimiter: str = ",",
    role: str = "reference",
) -> Table:
    """Load a UTF-8 delimited file with a header row into a Table.

    The id column is pulled out of the value columns and becomes the record
    id.  Short rows are padded with empty strings (missing cells); rows
    longer than the header are rejected.  Duplicate ids are rejected,
    naming the offending id and row.
    """
    path = Path(path)
    try:
        reader = csv.reader(io.StringIO(read_text(path), newline=""), delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, expected a header row")
        if id_column not in header:
            raise DataError(
                f"{path}: id column {id_column!r} not in header {header}"
            )
        id_idx = header.index(id_column)
        columns = tuple(c for i, c in enumerate(header) if i != id_idx)
        rows = []
        seen = set()
        for row_no, row in enumerate(reader, start=2):
            if len(row) > len(header):
                raise DataError(
                    f"{path}: row {row_no} has {len(row)} cells, "
                    f"header has {len(header)}"
                )
            row = row + [""] * (len(header) - len(row))
            rid = row[id_idx]
            if rid == "":
                raise DataError(f"{path}: row {row_no}: empty id")
            if rid in seen:
                raise DataError(f"{path}: row {row_no}: duplicate id {rid!r}")
            seen.add(rid)
            values = tuple(c for i, c in enumerate(row) if i != id_idx)
            rows.append(Record(rid, values))
    except csv.Error as exc:
        raise DataError(f"{path}: CSV parse failure: {exc}") from exc
    return Table(columns, tuple(rows), role)
