#!/usr/bin/env python3
"""Check that JSON artifacts parse with Python's own json module.

Usage: check_json.py PATTERN...

Every file matching a glob PATTERN is loaded: `*.jsonl` files line by
line (blank lines skipped), anything else as one document. NaN and
Infinity, which Python accepts but JSON does not, are rejected. A pattern
that matches no file is an error too, so a renamed artifact cannot turn
the check into a no-op. The parser is independent of the project's own
`trace::json`, so a writer bug cannot hide behind a matching parser bug.
Every file is checked; the exit status is 1 if any failed.
"""

import glob
import json
import sys


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check(path):
    with open(path, encoding="utf-8") as f:
        if not path.endswith(".jsonl"):
            json.load(f, parse_constant=reject_constant)
            return
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    json.loads(line, parse_constant=reject_constant)
                except ValueError as e:
                    raise ValueError(f"line {lineno}: {e}") from e


def main(patterns):
    ok = True
    for pattern in patterns:
        paths = sorted(glob.glob(pattern))
        if not paths:
            print(f"{pattern}: no file matched", file=sys.stderr)
            ok = False
        for path in paths:
            try:
                check(path)
            except (ValueError, UnicodeDecodeError) as e:
                print(f"{path}: {e}", file=sys.stderr)
                ok = False
        print(f"{pattern}: {len(paths)} file(s) checked")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
