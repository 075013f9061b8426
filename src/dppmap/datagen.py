"""Instance generation and ingestion.

Synthetic instances are feature matrices with i.i.d. standard-normal entries
(so the induced kernel is Wishart).  Real instances come from ratings, in a
``user,item,rating`` CSV (:func:`read_triples`) or a per-movie file
(:func:`convert_netflix`).  Both readers are generators over
:func:`~dppmap.matrixio.text_lines`, so their errors surface as the triples
are consumed, and both parse a rating by one rule: a non-numeric rating
raises ``ValueError`` and a non-finite one ``NonFiniteInputError``, each
naming ``path:line``.  :func:`binarize_ratings` turns ratings at or above a
threshold into 1.0 entries of a sparse 0/1 feature matrix with users as
dimensions and items as columns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError
from .kernel import SparseColumns
from .matrixio import text_lines
from .stream import DecisionStream

RATING_RANGE = (0.0, 10.0)


@dataclass
class SyntheticSpec:
    n: int
    d: int | None = None  # defaults to n
    seed: int = 0


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """A d-by-n feature matrix of i.i.d. standard normals, stored item-major.

    Deterministic given the seed: item ``i``'s vector is values
    ``i*d .. i*d + d - 1`` of one ``stream.normals(n * d)`` draw on the
    package-wide decision stream.  The result is a transposed view of that
    draw reshaped to n-by-d, so each item's vector is one contiguous row of
    its buffer (the result's ``.T`` is C-contiguous), and generation holds
    one copy of the matrix plus one block of Box-Muller temporaries.
    ``KernelOracle.from_dense_features`` and ``SparseColumns.from_dense``
    read it item by item without a transpose copy.  Sizes past numpy's
    largest array raise ``ValueError`` before any draw.
    """
    if spec.n < 1:
        raise ValueError("n must be positive")
    d = spec.n if spec.d is None else spec.d
    if d < 1:
        raise ValueError("d must be positive")
    if 8 * spec.n * d > np.iinfo(np.intp).max:  # below it, a matrix memory cannot hold raises MemoryError
        raise ValueError(f"n = {spec.n} items of d = {d} float64 features exceed numpy's largest array")
    return DecisionStream(spec.seed).normals(spec.n * d).reshape(spec.n, d).T


def _parse_rating(raw: str, where: str) -> float:
    """The rating field at ``where`` (``path:line``) as a float; warns when it is out of range."""
    try:
        rating = float(raw)
    except ValueError:
        raise ValueError(f"{where}: bad rating {raw!r}") from None
    if not math.isfinite(rating):
        raise NonFiniteInputError(f"{where}: non-finite rating {raw!r}")
    if not (RATING_RANGE[0] <= rating <= RATING_RANGE[1]):
        warnings.warn(f"{where}: rating {rating} outside {RATING_RANGE}")
    return rating


def read_triples(path):
    """Yield ``(user, item, rating)`` from a ``user,item,rating`` CSV, one line at a time.

    A header is recognized by a first non-blank row whose rating field does
    not parse as a float; a first row rated ``nan`` or ``inf`` is data, and
    is refused as every non-finite rating is.  Extra columns (timestamps
    etc.) are ignored.
    """
    first = True
    for where, line in text_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 3:
            raise ValueError(f"{where}: expected >= 3 fields, got {len(parts)}")
        user, item, raw = parts[:3]
        if first:
            first = False
            try:
                float(raw)
            except ValueError:
                continue  # header row: non-numeric rating field
        yield user, item, _parse_rating(raw, where)


def binarize_ratings(triples, threshold: float = 4.0, drop_empty: bool = True) -> tuple[SparseColumns, dict]:
    """Binarize ``(user, item, rating)`` triples into sparse 0/1 feature columns.

    ``triples`` is any iterable, read once: :func:`read_triples` and
    :func:`convert_netflix` stream theirs from a file.  Ratings at or above
    ``threshold`` become 1.0; items and users with no qualifying ratings are
    dropped (unless ``drop_empty`` is off, in which case every id seen keeps
    an index).  Surviving ids are reindexed densely in first-appearance
    order.  Returns the columns plus an id map ``{"users": {...}, "items":
    {...}, "threshold": threshold}``.  A NaN or infinite ``threshold``
    raises ``NonFiniteInputError`` before any triple is read.
    """
    if not math.isfinite(threshold):
        raise NonFiniteInputError(f"rating threshold {threshold!r} is not finite")
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    entries: dict[int, set[int]] = {}

    def index_of(table, key):
        if key not in table:
            table[key] = len(table)
        return table[key]

    for user, item, rating in triples:
        qualifies = rating >= threshold
        if not qualifies and drop_empty:
            continue
        u = index_of(user_index, user)
        m = index_of(item_index, item)
        if qualifies:
            entries.setdefault(m, set()).add(u)

    if not item_index:
        raise ValueError("no items survive ingestion")

    columns = [sorted(entries.get(m, ())) for m in range(len(item_index))]
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([len(users) for users in columns], out=indptr[1:])
    indices = np.array([user for users in columns for user in users], dtype=np.uint32)
    cols = SparseColumns(len(user_index), indptr, indices, np.ones(indices.size))
    cols.validate()
    idmap = {
        "users": dict(user_index),
        "items": dict(item_index),
        "threshold": threshold,
    }
    return cols, idmap


def write_idmap(path, idmap: dict) -> None:
    with open(path, "w") as fh:
        json.dump(idmap, fh, sort_keys=True, indent=2)
        fh.write("\n")


def convert_netflix(path):
    """Yield ``(user, movie, rating)`` triples from one per-movie rating file, one line at a time.

    Lines of the form ``<movie_id>:`` open a movie block; subsequent lines
    are ``user,rating,date``.  Fields are stripped of surrounding blanks, and
    ratings parsed by the same rule, as in a triple CSV.
    """
    movie = None
    for where, line in text_lines(path):
        if line.endswith(":"):
            movie = line[:-1].strip()
            continue
        if movie is None:
            raise ValueError(f"{where}: rating line before any movie header")
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise ValueError(f"{where}: expected user,rating[,date]")
        yield parts[0], movie, _parse_rating(parts[1], where)
