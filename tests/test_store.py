"""The store module: how every CSV, JSON report and exact-float blob of the
lab reaches disk."""

import ast
import json
import os

import numpy as np
import pytest

from mcfproto import store


def test_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    assert repr(np.float64(0.1)) == "np.float64(0.1)"  # what repr(x) would write
    store.write_csv(path, ["a", "b", "c", "d"], [
        [np.float64(0.1), None, 3, "x"],
        [np.float32(0.5), -0.0, np.int64(-7), ""],
        [1e-300, float("nan"), 0, 2.0],
    ])
    assert path.read_bytes() == (b"a,b,c,d\r\n"
                                 b"0.1,,3,x\r\n"
                                 b"0.5,-0.0,-7,\r\n"
                                 b"1e-300,nan,0,2.0\r\n")


def _to_jsonable(obj):
    """Numpy values as Python ones, converted before json.dumps: the rule that
    the report writers applied before store.write_json."""
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def test_write_json_matches_converted_dump(tmp_path):
    doc = {
        "schema_version": 1,
        "arrays": {"vector": np.arange(3.0), "matrix": np.eye(2) * 0.1,
                   "ints": np.arange(4).reshape(2, 2), "flags": np.array([True, False])},
        "scalars": [np.float64(0.1), np.float32(0.25), np.int64(-3), np.bool_(True),
                    np.bool_(False), np.float64("nan"), np.float64("-inf")],
        "plain": {"tuple": (1, 2.5, None), "text": "x", "empty": {}},
    }
    path = tmp_path / "r.json"
    store.write_json(path, doc)
    assert path.read_text() == json.dumps(_to_jsonable(doc), indent=2)


class DiskFull:
    """A file whose first write stores a prefix of the text, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[:4])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("write", [
    lambda path, value: store.write_csv(path, ["x"], [[value]] * 100),
    lambda path, value: store.write_json(path, {"x": np.full(100, value)}),
], ids=["csv", "json"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out"
    write(path, 0.5)
    before = path.read_bytes()
    real_open = open
    monkeypatch.setattr(store, "open", lambda p, mode="r": DiskFull(real_open(p, mode)),
                        raising=False)
    with pytest.raises(OSError):
        write(path, 0.25)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not os.path.exists(f"{path}.tmp")


def test_store_imports_no_mcfproto_module():
    with open(store.__file__) as f:
        tree = ast.parse(f.read())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [m for m in imported
                             if m.startswith(".") or m.split(".")[0] == "mcfproto"]
