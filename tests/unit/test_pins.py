"""Every bit pin has exactly one writer: a row of ``tools/pins.py``'s table.

A file under ``tests/data/`` or a key of ``tests/data/pins.json`` that no
row names could only be edited by hand; a row whose pin is missing on
disk has nothing for its tests to compare against.
"""

from __future__ import annotations

import json
from pathlib import Path

from tests.conftest import pins

ROOT = Path(__file__).resolve().parents[2]


def test_every_pin_file_and_key_is_a_row_and_every_row_is_pinned():
    table, pins_file = pins().PINS, pins().PINS_FILE
    files = {path for path, _ in table.values()}
    assert {
        f"tests/data/{path.name}" for path in (ROOT / "tests/data").iterdir()
    } == {path for path in files if path.startswith("tests/data/")}
    assert all((ROOT / path).is_file() for path in files)
    keys = json.loads((ROOT / pins_file).read_text())
    assert list(keys) == [
        name for name, (path, _) in table.items() if path == pins_file
    ]
