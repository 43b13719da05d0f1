#!/usr/bin/env python3
"""Compare two CLI snapshot files (scripts/cli_snapshot.py) field by field.

    python3 scripts/snapshot_diff.py tests/data/cli_snapshot.jsonl new.jsonl

For each line that differs, prints its call and every changed leaf by its
path, with the old and new values and, for numbers, the absolute change.
A line present in only one file is reported as such.  Exits 1 on any
difference and 0, printing nothing, when the files agree.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_snapshot import CALLS  # noqa: E402


def leaves(doc, path=""):
    """(path, value) for every scalar in a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def main(old_path: str, new_path: str) -> int:
    old, new = (Path(p).read_text(encoding="utf-8").splitlines() for p in (old_path, new_path))
    differs = False
    for n in range(max(len(old), len(new))):
        a, b = (lines[n] if n < len(lines) else None for lines in (old, new))
        if a == b:
            continue
        differs = True
        call = " ".join(CALLS[n]) if n < len(CALLS) else "(no call)"
        if a is None or b is None:
            print(f"line {n + 1} {call}: only in {old_path if b is None else new_path}")
            continue
        print(f"line {n + 1} {call}")
        la, lb = dict(leaves(json.loads(a))), dict(leaves(json.loads(b)))
        for key in list(la) + [k for k in lb if k not in la]:
            x, y = la.get(key, "(absent)"), lb.get(key, "(absent)")
            if x == y and type(x) is type(y):
                continue
            change = f" (change {abs(y - x):.2e})" if is_number(x) and is_number(y) else ""
            print(f"  {key}: {x!r} -> {y!r}{change}")
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
