"""Bytes on disk: atomic writes, the CSV and JSON writers, the JSON readers
and the exact "<f8" codec.

A leaf module: it imports nothing from mcfproto, so every other module can
use it.
"""

import base64
import contextlib
import csv
import json
import os

import numpy as np


@contextlib.contextmanager
def atomic_open(path):
    """Write `path` via a temporary file moved onto it: a crash keeps the old
    file and removes the temporary one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cell(x):
    """A float (numpy's included) as its Python repr, None as empty."""
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else x


def write_csv(path, header, rows):
    """The CSV file of `header` and `rows`, whole, each cell by _cell."""
    with atomic_open(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def _jsonable(obj):
    """json.dumps's default hook: a numpy array or scalar as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, doc):
    """`doc` as JSON indented by 2. The text is formed while the file is open."""
    with atomic_open(path) as f:
        f.write(json.dumps(doc, indent=2, default=_jsonable))


def load_json_object(path, what):
    """The JSON object in file `path`; else a ValueError naming `what` and `path`."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:
            raise ValueError(f"{what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path}: not a JSON object")
    return doc


def numbers(value, what, where, ndim, bools):
    """`value` as a finite float array of `ndim` dims, if it holds only JSON
    numbers (in equally wide rows); else a ValueError naming `where` and
    `what`. With `bools`, it also looks for a JSON true or false, which numpy
    reads as 1 or 0 among numbers."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged rows
        arr = np.array(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
        raise ValueError(f"{where}: {what} is not " + ("a list of numbers" if ndim == 1
                         else f"a {ndim}-d array of numbers in equally wide rows"))
    if bools and any(type(x) is bool for x in np.array(value, dtype=object).flat):
        raise ValueError(f"{where}: {what} holds a boolean, not a number")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where}: non-finite {what} value")
    return arr


def encode_f8(arrays):
    """The arrays as one base64 string of little-endian float64 ("<f8"),
    concatenated in order: exact, and far smaller and faster to write than
    repr lists."""
    flat = np.concatenate([a.ravel() for a in arrays])
    return base64.b64encode(flat.astype("<f8").tobytes()).decode("ascii")


def decode_f8(text, shapes, what):
    """Inverse of encode_f8 for arrays of `shapes`, in their order: a list of
    arrays. Raises ValueError naming `what` when `text` is not one."""
    if not isinstance(text, str):
        raise ValueError(f"{what} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} is not valid base64: {exc}") from exc
    sizes = [int(np.prod(s)) for s in shapes]
    if len(raw) != 8 * sum(sizes):
        raise ValueError(f"{what} holds {len(raw)} bytes, not 8 x {sum(sizes)} "
                         "parameters")
    flat = np.frombuffer(raw, dtype="<f8").astype(float)
    return [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
