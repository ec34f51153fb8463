"""`tools/compare.py`'s tree comparison: identical trees, a changed byte, and a file on one side only."""

import hashlib
import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
    return root


FILES = {"manifest.json": b"{}\n", "sample_00000.csv": b"a,b\n0.5,1\n", "pre/checkpoints/final.ckpt": b"FDCK\x01"}


def _sha(content):
    return hashlib.sha256(content).hexdigest()


def test_identical_trees_differ_in_nothing(compare, tmp_path):
    assert compare.compare_trees(_tree(tmp_path / "a", FILES), _tree(tmp_path / "b", FILES)) == []


def test_one_changed_byte_is_named_with_both_hashes(compare, tmp_path):
    changed = {**FILES, "pre/checkpoints/final.ckpt": b"FDCK\x02"}
    assert compare.compare_trees(_tree(tmp_path / "a", FILES), _tree(tmp_path / "b", changed)) == [
        ("pre/checkpoints/final.ckpt", _sha(b"FDCK\x01"), _sha(b"FDCK\x02"))]


def test_a_file_on_one_side_only_is_named_with_none_on_the_other(compare, tmp_path):
    fewer = {k: v for k, v in FILES.items() if k != "sample_00000.csv"}
    assert compare.compare_trees(_tree(tmp_path / "a", FILES), _tree(tmp_path / "b", fewer)) == [
        ("sample_00000.csv", _sha(FILES["sample_00000.csv"]), None)]
    assert compare.compare_trees(_tree(tmp_path / "c", fewer), _tree(tmp_path / "d", FILES)) == [
        ("sample_00000.csv", None, _sha(FILES["sample_00000.csv"]))]
