#!/usr/bin/env python3
"""Checks that every include in src/ points down the layer order.

docs/ARCHITECTURE.md lists the layers of src/ in one line
(``util → linalg → … → service``); a file under ``src/<layer>/`` may include
headers of its own layer and of the layers before it, never of a later one.
The check reads the order from that line, scans every ``#include "x/..."``
in src/, and exits non-zero listing each upward include that is not in
ALLOWED_UPWARD. An allowed edge that no longer exists is reported too, so
the list cannot outlive its reason. Run from anywhere:

    python3 scripts/check_layering.py
"""

import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]+"', re.MULTILINE)

# The one sanctioned upward edge: run_estimation_flow(nl, tb) serves through
# the process-wide default engine registry of the service layer.
ALLOWED_UPWARD = {
    ("src/core/estimation_flow.cpp", "service/engine_registry.hpp"),
}


def layer_order(root: pathlib.Path) -> list:
    text = (root / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        names = [name.strip() for name in line.split("→")]
        if len(names) > 2 and names[0] == "util":
            return names
    raise SystemExit("docs/ARCHITECTURE.md: no 'util → … → service' line")


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    order = layer_order(root)
    rank = {name: i for i, name in enumerate(order)}
    violations = []
    seen_allowed = set()
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        layer = path.relative_to(root / "src").parts[0]
        if layer not in rank:
            violations.append(f"{rel}: layer '{layer}' is not in the order")
            continue
        for match in INCLUDE.finditer(path.read_text(encoding="utf-8")):
            target = match.group(1)
            if target not in rank or rank[target] <= rank[layer]:
                continue
            header = match.group(0).split('"')[1]
            if (rel, header) in ALLOWED_UPWARD:
                seen_allowed.add((rel, header))
                continue
            violations.append(f"{rel}: {layer} includes {header} ({target} "
                              f"comes later in {' → '.join(order)})")
    for rel, header in sorted(ALLOWED_UPWARD - seen_allowed):
        violations.append(f"{rel}: allowed upward include of {header} is gone; "
                          "delete it from ALLOWED_UPWARD")
    for line in violations:
        print(line)
    print(f"check_layering: {len(order)} layers, "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
