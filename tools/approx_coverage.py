"""Approximate line coverage for repro.sim + repro.compiler, no deps.

CI pins the real number with pytest-cov (``--cov-fail-under`` in
.github/workflows/ci.yml); this script exists so the baseline can be
re-measured in environments where pytest-cov is not installed.  It runs
the test suite under a ``sys.settrace`` line tracer restricted to the
two measured packages and compares executed lines against each module's
executable lines (from compiled code objects, recursively — the same
universe ``coverage.py`` uses, minus its excludes), so it reads a few
points *low* relative to pytest-cov, which excludes pragmas and
unreachable clauses.  Pin the CI threshold below this script's number.

Usage::

    PYTHONPATH=src python tools/approx_coverage.py [pytest args...]
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

MEASURED = ("src/repro/sim", "src/repro/compiler")


def summarize(hit, root) -> dict:
    """Fold traced lines into the per-file/per-package/total summary."""
    summary = {
        "measured": list(MEASURED),
        "files": {},
        "packages": {},
        "total": {},
    }
    grand_hit = grand_total = 0
    for measured in MEASURED:
        pkg_hit = pkg_total = 0
        base = os.path.join(root, measured)
        for dirpath, _dirs, files in os.walk(base):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                total = executable_lines(path)
                covered = hit.get(path, set()) & total
                pkg_total += len(total)
                pkg_hit += len(covered)
                rel = os.path.relpath(path, root)
                pct = 100.0 * len(covered) / len(total) if total else 100.0
                summary["files"][rel] = {
                    "lines": len(total),
                    "hit": len(covered),
                    "pct": round(pct, 2),
                }
        grand_hit += pkg_hit
        grand_total += pkg_total
        pct = 100.0 * pkg_hit / pkg_total if pkg_total else 100.0
        summary["packages"][measured] = {
            "lines": pkg_total,
            "hit": pkg_hit,
            "pct": round(pct, 2),
        }
    pct = 100.0 * grand_hit / grand_total if grand_total else 100.0
    summary["total"] = {
        "lines": grand_total,
        "hit": grand_hit,
        "pct": round(pct, 2),
    }
    return summary


def render(summary) -> str:
    """The classic text table, from a :func:`summarize` document."""
    lines = [f"\n{'file':<58} {'lines':>6} {'hit':>6} {'cov':>6}"]
    for measured in summary["measured"]:
        for rel, entry in summary["files"].items():
            if not rel.startswith(measured + os.sep):
                continue
            lines.append(
                f"{rel:<58} {entry['lines']:>6} {entry['hit']:>6} "
                f"{entry['pct']:>5.1f}%"
            )
        pkg = summary["packages"][measured]
        lines.append(
            f"{measured:<58} {pkg['lines']:>6} {pkg['hit']:>6} "
            f"{pkg['pct']:>5.1f}%  <- package"
        )
    total = summary["total"]
    lines.append(
        f"{'TOTAL':<58} {total['lines']:>6} {total['hit']:>6} "
        f"{total['pct']:>5.1f}%"
    )
    return "\n".join(lines)


def executable_lines(path: str) -> set:
    """All line numbers owned by code objects compiled from *path*."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(ln for _, _, ln in obj.co_lines() if ln is not None)
        stack.extend(c for c in obj.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    import pytest

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    prefixes = tuple(os.path.join(root, m) + os.sep for m in MEASURED)
    hit = defaultdict(set)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefixes):
            return None
        lines = hit[filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        if event == "call":
            lines.add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider"] + list(argv))
    finally:
        sys.settrace(None)
    if rc != 0:
        print(f"pytest failed (exit {rc}); coverage numbers not meaningful")
        return rc

    print(render(summarize(hit, root)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
