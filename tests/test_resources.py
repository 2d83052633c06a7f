import os

import pytest

from cascade_forge.resources import atomic_write


def test_atomic_write_removes_its_temporary_file_when_the_write_fails(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(path), "\ud800")  # a lone surrogate has no UTF-8 form
    assert os.listdir(tmp_path) == []


def test_atomic_write_removes_its_temporary_file_when_the_rename_fails(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    with pytest.raises(OSError):
        atomic_write(str(path), "text\n")
    assert os.listdir(tmp_path) == ["adir"]
    assert os.listdir(path) == []
