"""Representation files: exact, diff-friendly JSON.

A representation file holds the field ("Q" or {"Fp": p}), the
dimension, and named generator matrices whose entries are integers or
exact scalar strings like "3" and "-7/2".  Serialisation writes
non-integers as strings so round trips are bit-exact.

Entries are refused by ``Field.of`` (booleans too) and generator names
that no word can spell by ``Representation``; this module turns those
refusals into ``RepFileError``.  ``dim`` and p must be JSON integers.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Any

from .fields import GF, QQ, Field
from .linalg import Matrix
from .reps import Representation


class RepFileError(ValueError):
    """A representation file failed to parse or validate."""


def _parse_field(value: Any) -> Field:
    if value == "Q":
        return QQ
    if isinstance(value, dict) and set(value) == {"Fp"}:
        p = value["Fp"]
        if type(p) is not int:
            raise RepFileError(f"field order must be an integer, got {p!r}")
        try:
            return GF(p)
        except ValueError as e:
            raise RepFileError(str(e)) from None
    raise RepFileError(f'field must be "Q" or {{"Fp": p}}, got {value!r}')


def _field_spec(field: Field) -> Any:
    return "Q" if field.p is None else {"Fp": field.p}


def _parse_entry(field: Field, value: Any, where: str):
    try:
        return field.of(value)
    except ZeroDivisionError:
        raise RepFileError(f"{where}: bad scalar {value!r} (zero denominator)") from None
    except (ValueError, TypeError) as e:
        raise RepFileError(f"{where}: bad scalar {value!r} ({e})") from None


def _parse_matrix(field: Field, dim: int, data: Any, where: str) -> Matrix:
    if not isinstance(data, list):
        raise RepFileError(f"{where}: matrix must be a list")
    if data and isinstance(data[0], list):
        rows = data
    else:
        # flat row-major list
        if len(data) != dim * dim:
            raise RepFileError(f"{where}: flat matrix needs {dim * dim} entries, got {len(data)}")
        rows = [data[i * dim:(i + 1) * dim] for i in range(dim)]
    if len(rows) != dim or any(not isinstance(r, list) or len(r) != dim for r in rows):
        raise RepFileError(f"{where}: expected a {dim}x{dim} matrix")
    # each entry is coerced once, here, where a bad one can be named
    entries = [[_parse_entry(field, x, where) for x in row] for row in rows]
    return Matrix._of_scalars(field, entries, dim)


def representation_from_dict(doc: Any) -> Representation:
    if not isinstance(doc, dict):
        raise RepFileError("representation file must be a JSON object")
    for key in ("field", "dim", "generators"):
        if key not in doc:
            raise RepFileError(f"missing required key {key!r}")
    field = _parse_field(doc["field"])
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise RepFileError(f"dim must be a positive integer, got {dim!r}")
    gens = doc["generators"]
    if not isinstance(gens, dict) or not gens:
        raise RepFileError("generators must be a non-empty object of name -> matrix")
    items = []
    for name, data in gens.items():
        items.append((name, _parse_matrix(field, dim, data, f"generator {name!r}")))
    try:
        return Representation(field, items)
    except ValueError as e:
        raise RepFileError(str(e)) from None


def representation_to_dict(rep: Representation) -> dict:
    return {
        "field": _field_spec(rep.field),
        "dim": rep.dim,
        "generators": {name: matrix_to_rows(m) for name, m in rep.items()},
    }


def loads_representation(text: str) -> Representation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RepFileError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    return representation_from_dict(doc)


def load_representation(path: str) -> Representation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise RepFileError(f"cannot read {path}: {e}") from None
    return loads_representation(text)


def dumps_representation(rep: Representation) -> str:
    return json.dumps(representation_to_dict(rep), indent=2) + "\n"


def matrix_to_rows(m: Matrix) -> list:
    """Rows with exact entries: an entry whose reduced denominator is 1 is
    an int, any other the string "p/q".  They are read from ``ints`` and
    ``den`` with one gcd per entry; when ``den`` is 1 the integer rows
    are the entries, and are returned as they are."""
    den = m.den
    if den == 1:
        return list(m.ints)
    return [[x // g if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in r]
            for r in m.ints]
