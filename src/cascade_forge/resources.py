"""Loaders for the bundled data files, and the one writer of output files.

The Tangkhulic law corpus holds 26 hand-encoded historical sound laws
from three Tangkhulic languages, each with environment/mapping example
strings.  In those strings ``#`` marks a word edge and ``∅`` the empty
word; both are markers, not phones.  Cover symbols like ``C`` and ``W``
are ordinary phones of the corpus inventory.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from importlib import resources

from cascade_forge.phonology import Inventory, load_inventory
from cascade_forge.rule_engine import Rule, rule_from_obj


@dataclass(frozen=True)
class CorpusLaw:
    language: str
    law: str
    rule: Rule
    examples: tuple[tuple[str, str], ...]


def _read(name: str) -> str:
    return resources.files("cascade_forge.data").joinpath(name).read_text("utf-8")


def tangkhulic_inventory() -> Inventory:
    return load_inventory(_read("tangkhulic_inventory.tsv"))


def strip_markers(text: str) -> str:
    """Reduce a corpus example string to its surface word."""
    return text.replace("#", "").replace("∅", "")


def tangkhulic_laws(inv: Inventory | None = None) -> list[CorpusLaw]:
    if inv is None:
        inv = tangkhulic_inventory()
    entries = json.loads(_read("tangkhulic_laws.json"))
    laws = []
    for i, entry in enumerate(entries):
        rule = rule_from_obj(entry["rule"], f"/{i}/rule", inv)
        examples = tuple(
            (example["environment"], example["mapping"]) for example in entry["examples"]
        )
        laws.append(CorpusLaw(entry["language"], entry["law"], rule, examples))
    return laws


def dumps(obj) -> str:
    """JSON text as every output file holds it: sorted keys, indented, newline-terminated."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` through a temporary file, creating parent directories.

    The temporary file is removed when the write or the final rename fails.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
