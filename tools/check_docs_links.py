#!/usr/bin/env python3
"""Fails when README.md or docs/*.md contain broken relative links or
name repo paths that do not exist.

Checks every inline markdown link [text](target) whose target is not an
absolute URL or a pure in-page anchor: the referenced file must exist
relative to the file containing the link. Anchors on existing files are
accepted without heading verification (headings move too often to pin).

Also checks every backticked repo path outside code fences: a code span
such as `src/obs/export.h` or `src/serve/replay.cc:408` that starts with
a top-level source directory must name a file or directory relative to
the repo root (a trailing `:line` is allowed). Spans holding a pattern
rather than a path (`*`, `{`, `<` or `...`) are skipped.

Usage: tools/check_docs_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Inline code spans may contain [x](y)-looking text; strip them first.
CODE_SPAN = re.compile(r"`([^`]*)`")
FENCE = re.compile(r"^(```|~~~)")
REPO_PATH = re.compile(
    r"((?:src|tests|tools|bench|examples|docs|perfbench)/\S*?)(?::\d+)?")
PATTERN_MARKS = ("*", "{", "<", "...")


def candidate_files(root: Path):
    yield root / "README.md"
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def check_file(path: Path, root: Path):
    errors = []
    in_fence = False
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in CODE_SPAN.findall(line):
            repo_path = REPO_PATH.fullmatch(span)
            if repo_path is None or any(m in span for m in PATTERN_MARKS):
                continue
            if not (root / repo_path.group(1)).exists():
                errors.append(f"{path}:{line_number}: no such repo path: {span}")
        for target in LINK.findall(CODE_SPAN.sub("", line)):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                errors.append(
                    f"{path}:{line_number}: link escapes the repo: {target}"
                )
                continue
            if not resolved.exists():
                errors.append(
                    f"{path}:{line_number}: broken link target: {target}"
                )
    return errors


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    errors = []
    checked = 0
    for path in candidate_files(root):
        if not path.exists():
            errors.append(f"expected doc file missing: {path}")
            continue
        checked += 1
        errors.extend(check_file(path, root))
    for error in errors:
        print(error)
    print(f"checked {checked} markdown files: "
          f"{'FAIL' if errors else 'all links OK'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
