"""Reader of the '#'-commented CSV tables that come from outside the program:
calibration measurements and collision traces.  Every defect raises
ValueError naming the file, and the data row (counted from 1) where one is at
fault."""

from __future__ import annotations

import csv
import math
from pathlib import Path


def read(path: str | Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """Data rows as {column: text}.  The header names `columns`, a data row
    follows it and every row has its width; '#' and blank lines are skipped."""
    try:
        with open(path, newline="") as f:
            table = [r for r in csv.reader(l for l in f if not l.startswith("#")) if r]
    except (UnicodeDecodeError, csv.Error) as e:
        raise ValueError(f"{path}: not a CSV table: {e}") from None
    header, rows = (table[0], table[1:]) if table else ([], [])
    if not set(columns) <= set(header):
        raise ValueError(f"{path}: header must name {' and '.join(columns)}")
    if not rows:
        raise ValueError(f"{path}: no data row")
    for n, row in enumerate(rows, 1):
        if len(row) != len(header):
            size = "short" if len(row) < len(header) else "long"
            raise ValueError(f"{path}: data row {n} is {size}: {len(row)} fields, "
                             f"header has {len(header)}")
    return [dict(zip(header, row)) for row in rows]


def number(path: str | Path, n: int, row: dict[str, str], column: str) -> float:
    """row[column] of data row n as a finite float."""
    try:
        v = float(row[column])
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"{path}: data row {n}: {column} {row[column]!r} "
                         "is not a finite number")
    return v
