"""Instance generation and ingestion.

Synthetic instances are feature matrices with i.i.d. standard-normal entries
(so the induced kernel is Wishart).  Real instances come from rating triples
``user,item,rating``: ratings at or above a threshold become 1.0 entries of a
sparse 0/1 feature matrix with users as dimensions and items as columns.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernel import SparseColumns
from .stream import DecisionStream

RATING_RANGE = (0.0, 10.0)


@dataclass
class SyntheticSpec:
    n: int
    d: int | None = None  # defaults to n
    seed: int = 0


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """A d-by-n feature matrix of i.i.d. standard normals.

    Deterministic given the seed: draws fill item vectors one item at a time
    (column-major), from the package-wide decision stream.
    """
    if spec.n < 1:
        raise ValueError("n must be positive")
    d = spec.n if spec.d is None else spec.d
    if d < 1:
        raise ValueError("d must be positive")
    stream = DecisionStream(spec.seed)
    values = stream.normals(spec.n * d)
    return values.reshape(spec.n, d).T.copy()


@dataclass
class RatingsSpec:
    path: str | Path
    threshold: float = 4.0
    drop_empty: bool = True


def _warn_out_of_range(rating: float, where: str) -> None:
    if not (RATING_RANGE[0] <= rating <= RATING_RANGE[1]):
        warnings.warn(f"{where}: rating {rating} outside {RATING_RANGE}")


def _parse_triples(path):
    """Yield (user, item, rating) from a ``user,item,rating`` CSV.

    A header is auto-detected by a non-numeric rating field on the first row.
    Extra columns (timestamps etc.) are ignored.
    """
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 3:
                raise ValueError(f"{path}:{ln}: expected >= 3 fields, got {len(parts)}")
            user, item, raw = parts[:3]
            try:
                rating = float(raw)
            except ValueError:
                if ln == 1:
                    continue  # header row: non-numeric rating field
                raise ValueError(f"{path}:{ln}: bad rating {raw!r}") from None
            _warn_out_of_range(rating, f"{path}:{ln}")
            yield user, item, rating


def ingest_ratings(spec: RatingsSpec) -> tuple[SparseColumns, dict]:
    """Read the triple CSV at ``spec.path`` and binarize it (:func:`binarize_ratings`)."""
    return binarize_ratings(_parse_triples(spec.path), spec)


def binarize_ratings(triples, spec: RatingsSpec) -> tuple[SparseColumns, dict]:
    """Binarize ``(user, item, rating)`` triples into sparse 0/1 feature columns.

    Ratings at or above the threshold become 1.0; items and users with no
    qualifying ratings are dropped (unless ``drop_empty`` is off, in which
    case every id seen keeps an index).  Surviving ids are reindexed densely
    in first-appearance order.  Returns the columns plus an id map
    ``{"users": {...}, "items": {...}}``.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    entries: dict[int, set[int]] = {}

    def index_of(table, key):
        if key not in table:
            table[key] = len(table)
        return table[key]

    for user, item, rating in triples:
        qualifies = rating >= spec.threshold
        if not qualifies and spec.drop_empty:
            continue
        u = index_of(user_index, user)
        m = index_of(item_index, item)
        if qualifies:
            entries.setdefault(m, set()).add(u)

    if not item_index:
        raise ValueError("no items survive ingestion")

    cols = SparseColumns(dim=len(user_index))
    for m in range(len(item_index)):
        users = sorted(entries.get(m, ()))
        cols.indices.append(np.array(users, dtype=np.uint32))
        cols.values.append(np.ones(len(users)))
    cols.validate()
    idmap = {
        "users": dict(user_index),
        "items": dict(item_index),
        "threshold": spec.threshold,
    }
    return cols, idmap


def write_idmap(path, idmap: dict) -> None:
    with open(path, "w") as fh:
        json.dump(idmap, fh, sort_keys=True, indent=2)
        fh.write("\n")


def convert_netflix(paths) -> list[tuple[str, str, float]]:
    """Flatten the per-movie rating file format into triples.

    Lines of the form ``<movie_id>:`` open a movie block; subsequent lines
    are ``user,rating,date``.  Fields are stripped of surrounding blanks, as
    in a triple CSV.
    """
    triples = []
    for path in paths:
        movie = None
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.endswith(":"):
                    movie = line[:-1].strip()
                    continue
                if movie is None:
                    raise ValueError(f"{path}:{ln}: rating line before any movie header")
                parts = [p.strip() for p in line.split(",")]
                if len(parts) < 2:
                    raise ValueError(f"{path}:{ln}: expected user,rating[,date]")
                rating = float(parts[1])
                _warn_out_of_range(rating, f"{path}:{ln}")
                triples.append((parts[0], movie, rating))
    return triples
