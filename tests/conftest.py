import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cascade_forge.phonology import default_inventory, load_inventory

TINY_INVENTORY = """\
!feature syllabic,voiced,coronal
a\t1,1,0
e\t1,1,1
i\t1,0,0
u\t1,0,1
t\t0,0,1
s\t0,0,0
ts\t0,1,1
k\t0,1,0
j\t-1,1,0
b\t-1,0,0
"""


@pytest.fixture(scope="session")
def default_inv():
    return default_inventory()


@pytest.fixture(scope="session")
def tiny_inv():
    return load_inventory(TINY_INVENTORY)


def tree_bytes(root, exclude=()):
    """Every file under ``root`` by its relative path, as bytes, skipping
    the file names in ``exclude``."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            if name in exclude:
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out
