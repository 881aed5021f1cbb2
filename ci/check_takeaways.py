#!/usr/bin/env python3
"""Gate EXPERIMENTS.md's "Prose takeaways" table against bench_takeaways.

bench_takeaways prints two tables of headline aggregates: one over all
scales and one over the small+large inputs only, each row a label, the
measured percentage and the paper's. EXPERIMENTS.md carries the same
numbers in one table with the columns paper, measured (all scales) and
measured (small+large). This check fails if any number there differs from
the printed one at one decimal, if a table row names no printed
aggregate, or if a printed aggregate has no row. A cell of "—" stands for
an aggregate the small+large table does not print.

Usage: check_takeaways.py TAKEAWAYS_STDOUT [EXPERIMENTS.md]
Exit code 0 = the table matches; 1 = mismatches (listed on stderr);
2 = bad usage or a document the check cannot parse.
"""
import os
import re
import sys

SECTION = "## Prose takeaways"
ALL_SCALES_HEADER = re.compile(r"^aggregate\s+measured %\s+paper %$")
SMALL_LARGE_INTRO = "Same aggregates over small+large inputs only:"
PRINTED_ROW = re.compile(r"^(\S.*?)\s+(-?\d+\.\d)\s+(-?\d+\.\d)$")

# EXPERIMENTS.md row label -> bench_takeaways row label.
LABELS = {
    "Tier-0 advantage vs T1": "Tier 0 advantage vs Tier 1",
    "Tier-0 advantage vs T2": "Tier 0 advantage vs Tier 2",
    "Tier-0 advantage vs T3": "Tier 0 advantage vs Tier 3",
    "NVM extra time": "NVM extra execution time",
    "… sensitive apps": "sensitive apps (repartition/bayes/lda/pagerank)",
    "… tolerant apps": "tolerant apps (sort/als/rf)",
    "DRAM energy saving": "DRAM energy saving per DIMM",
}


def fail_usage(message):
    print(f"check_takeaways: {message}", file=sys.stderr)
    sys.exit(2)


def printed_tables(text):
    """The (all scales, small+large) tables: label -> (measured, paper)."""
    tables = [{}, {}]
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if ALL_SCALES_HEADER.match(line):
            current = tables[0] if not tables[0] else tables[1]
            continue
        if line == SMALL_LARGE_INTRO:
            current = None
            continue
        if current is None or line.startswith("---"):
            continue
        if not line:
            current = None
            continue
        m = PRINTED_ROW.match(line)
        if m:
            current[m.group(1)] = (m.group(2), m.group(3))
    if not tables[0] or not tables[1]:
        fail_usage("bench_takeaways output has no two aggregate tables")
    return tables


def document_rows(text):
    """EXPERIMENTS.md's table: label -> (paper, all scales, small+large)."""
    start = text.find(SECTION)
    if start < 0:
        fail_usage(f"no '{SECTION}' section")
    rows = {}
    for line in text[start:].splitlines()[1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] in ("aggregate", "") or \
                set(cells[1]) <= set("-:"):
            continue
        values = []
        for cell in cells[1:]:
            cell = cell.replace("**", "").replace("%", "").strip()
            values.append(None if cell == "—" else cell)
        rows[cells[0]] = tuple(values)
    if not rows:
        fail_usage(f"no table under '{SECTION}'")
    return rows


def compare(printed, rows):
    all_scales, small_large = printed
    errors = []
    seen = set()
    for label, (paper, measured, measured_sl) in rows.items():
        name = LABELS.get(label)
        if name is None or name not in all_scales:
            errors.append(f"row '{label}' names no printed aggregate")
            continue
        seen.add(name)
        want_measured, want_paper = all_scales[name]
        checks = [("paper", paper, want_paper),
                  ("measured (all scales)", measured, want_measured)]
        want_sl = small_large.get(name)
        checks.append(("measured (small+large)", measured_sl,
                       want_sl[0] if want_sl else None))
        if want_sl and want_sl[1] != want_paper:
            errors.append(f"'{name}': the two printed tables disagree on "
                          f"the paper figure")
        for column, have, want in checks:
            if have is None and want is None:
                continue
            if have is None or want is None or \
                    f"{float(have):.1f}" != want:
                errors.append(f"'{label}' {column}: EXPERIMENTS.md has "
                              f"{have or '—'}, bench_takeaways prints "
                              f"{want or 'nothing'}")
    for name in all_scales:
        if name not in seen:
            errors.append(f"printed aggregate '{name}' has no row")
    return errors


def main(argv):
    if len(argv) not in (2, 3):
        fail_usage("usage: check_takeaways.py TAKEAWAYS_STDOUT "
                   "[EXPERIMENTS.md]")
    doc = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "EXPERIMENTS.md")
    with open(argv[1], encoding="utf-8") as f:
        printed = printed_tables(f.read())
    with open(doc, encoding="utf-8") as f:
        rows = document_rows(f.read())
    errors = compare(printed, rows)
    for e in errors:
        print(f"check_takeaways: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_takeaways: {len(rows)} rows match bench_takeaways")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
