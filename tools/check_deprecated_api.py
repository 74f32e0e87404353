#!/usr/bin/env python3
"""Fail when in-tree code calls an API deprecated by the sparse-first
topology engine rework.

Scans src/, tools/, bench/ and examples/ (NOT tests/ — the compat suites
deliberately keep one covered call site per deprecated entry point) for
member-call spellings of the deprecated surface:

    .row(          -> Topology::neighbors() / Topology::dense_row()
    .adjacency(    -> Topology::neighbors()
    .breakdown(    -> Evaluator::evaluate(g).breakdown
    .last_loads(   -> Evaluator::evaluate(g, {.want_loads = true}).loads

The patterns match calls only, so declarations/definitions
(`Evaluator::breakdown(...)`) and struct-field reads (`result.breakdown`)
do not trip the lint. Lines carrying an explicit `// deprecated-api-allowed`
marker are skipped.

Exit 0 when clean, 1 with one "file:line: pattern" diagnostic per hit.
Pure stdlib; no third-party imports.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "tools", "bench", "examples")
EXTENSIONS = (".h", ".cpp", ".cc", ".hpp")
ALLOW_MARKER = "deprecated-api-allowed"

PATTERNS = {
    r"\.row\(": "Topology::row — use neighbors() or dense_row()",
    r"\.adjacency\(": "Topology::adjacency — use neighbors()",
    r"\.breakdown\(": "Evaluator::breakdown — use evaluate(g).breakdown",
    r"\.last_loads\(":
        "Evaluator::last_loads — use evaluate(g, EvalRequest) loads",
}


def scan_file(path):
    hits = []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            if ALLOW_MARKER in line:
                continue
            code = line.split("//", 1)[0]  # comments may name the old API
            for pattern, message in PATTERNS.items():
                if re.search(pattern, code):
                    hits.append((path, lineno, message))
    return hits


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    hits = []
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(EXTENSIONS):
                    hits.extend(scan_file(os.path.join(dirpath, name)))
    for path, lineno, message in hits:
        rel = os.path.relpath(path, root)
        print(f"{rel}:{lineno}: deprecated API call: {message}")
    if hits:
        print(f"{len(hits)} deprecated API call(s); migrate or mark the "
              f"line with // {ALLOW_MARKER}", file=sys.stderr)
        return 1
    print("deprecated-API lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
