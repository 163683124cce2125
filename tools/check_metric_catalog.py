#!/usr/bin/env python3
"""Fails when docs/OBSERVABILITY.md and src/ disagree on the metric catalog.

The source side is every "tbf_*" string literal in src/ (comments
stripped) and, for each obs::LabeledName("tbf_*", "label", "value") call
whose label value is a literal, the set of values each label takes. The
doc side is every catalog table row of docs/OBSERVABILITY.md whose first
cell is a `tbf_*` name, and the value sets its label cell lists as
`label` ∈ {`a`, `b`}.

It fails when a series src/ registers has no catalog row, when a row
names a series src/ does not register, or when a label's literal values
in src/ differ from the set the row lists. Label values computed at run
time (such as the shard number) are not checked.

Usage: tools/check_metric_catalog.py [repo_root]
"""

import re
import sys
from pathlib import Path

NAME_LITERAL = re.compile(r'"(tbf_[a-z0-9_]+)"')
LABELED = re.compile(
    r'LabeledName\(\s*"(tbf_[a-z0-9_]+)"\s*,\s*"([a-z0-9_]+)"\s*,'
    r'\s*"([^"]*)"\s*\)')
ROW = re.compile(r"^\|\s*`(tbf_[a-z0-9_]+)`\s*\|([^\n]*)$", re.M)
LABEL_SET = re.compile(r"`([a-z0-9_]+)`\s*∈\s*\{([^}]*)\}")
VALUE = re.compile(r"`([^`]*)`")


def strip_comments(text: str) -> str:
    """Drops // and /* */ comments; string and character literals stay."""
    out = []
    i = 0
    while i < len(text):
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = len(text) if end < 0 else end + 2
            out.append(" ")
        elif text[i] in "\"'":
            quote = text[i]
            end = i + 1
            while end < len(text) and text[end] != quote:
                end += 2 if text[end] == "\\" else 1
            out.append(text[i:end + 1])
            i = end + 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def source_catalog(src: Path):
    names = set()
    labels = {}  # (name, label) -> set of literal values
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        code = strip_comments(path.read_text(encoding="utf-8"))
        names.update(NAME_LITERAL.findall(code))
        for name, label, value in LABELED.findall(code):
            labels.setdefault((name, label), set()).add(value)
    return names, labels


def doc_catalog(doc: Path):
    names = set()
    labels = {}
    for name, rest in ROW.findall(doc.read_text(encoding="utf-8")):
        names.add(name)
        label_cell = rest.split("|")[1] if "|" in rest else ""
        for label, values in LABEL_SET.findall(label_cell):
            labels[(name, label)] = set(VALUE.findall(values))
    return names, labels


def check(root: Path):
    doc = root / "docs" / "OBSERVABILITY.md"
    src_names, src_labels = source_catalog(root / "src")
    doc_names, doc_labels = doc_catalog(doc)
    errors = []
    for name in sorted(src_names - doc_names):
        errors.append(f"{doc}: src/ registers {name}, the catalog has no row")
    for name in sorted(doc_names - src_names):
        errors.append(f"{doc}: catalog row {name} is not registered in src/")
    for key in sorted(set(src_labels) | set(doc_labels)):
        name, label = key
        if name not in src_names or name not in doc_names:
            continue
        want = src_labels.get(key, set())
        have = doc_labels.get(key, set())
        for value in sorted(want - have):
            errors.append(f"{doc}: {name}{{{label}=\"{value}\"}} is registered "
                          f"in src/ but not listed")
        for value in sorted(have - want):
            errors.append(f"{doc}: {name}{{{label}=\"{value}\"}} is listed but "
                          f"src/ does not register it")
    return errors, len(src_names)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    errors, count = check(root)
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} metric catalog mismatch(es)", file=sys.stderr)
        return 1
    print(f"metric catalog matches src/: {count} series")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
