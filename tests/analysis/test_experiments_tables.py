"""EXPERIMENTS.md quotes the committed figure tables exactly.

Every "measured" number in the paper-vs-measured tables for figs. 4, 5,
7, 8, 9 and 10 and the registry-backend table must equal, digit for
digit, the number in the ``benchmarks/results`` table it quotes.  The
benches rewrite those tables deterministically, so a hand-typed number
that drifts from them fails here.
"""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "benchmarks" / "results"

#: one results-table row: a label, then right-aligned 3-decimal numbers
_ROW = re.compile(r"^(\S.*?)\s+((?:-?\d+\.\d+\s*)+)$")


def results_table(name: str) -> dict[str, list[str]]:
    """A rendered ``benchmarks/results`` table as {row label: [number
    text, one per column]}."""
    rows = {}
    for line in (RESULTS / name).read_text().splitlines()[3:]:
        match = _ROW.match(line)
        if match:
            rows[match.group(1).strip()] = match.group(2).split()
    return rows


def doc_table(heading: str) -> list[list[str]]:
    """The first markdown table under the EXPERIMENTS.md heading that
    starts with ``heading``: its header row, then its body rows, each a
    list of cell texts with bold markers removed."""
    lines = EXPERIMENTS.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("## " + heading))
    table = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            table.append([cell.strip().replace("**", "")
                          for cell in line.strip().strip("|").split("|")])
        elif table:
            break
    header, rule, *body = table
    assert set(rule) <= {"---", ""}, rule
    return [header, *body]


def quoted(heading: str, column: str, results: str,
           labels: dict[str, str]) -> list[tuple[str, str, str]]:
    """(row, doc text, results text) for a doc table whose ``column``
    quotes the Avg column of ``results``, rows mapped by ``labels``."""
    header, *body = doc_table(heading)
    assert [row[0] for row in body] == list(labels)
    rows = results_table(results)
    index = header.index(column)
    return [(label, row[index], rows[labels[label]][-1])
            for label, row in zip(labels, body)]


def grid(heading: str, results: str, labels: dict[str, str], *,
         transposed: bool = False) -> list[tuple[str, str, str]]:
    """(cell, doc text, results text) for a doc table that quotes every
    cell of ``results``, columns in the same order (or rows and columns
    swapped), rows mapped by ``labels``."""
    header, *body = doc_table(heading)
    rows = results_table(results)
    if transposed:
        columns = (RESULTS / results).read_text().splitlines()[2].split()
        assert [row[0] for row in body] == columns
    cells = []
    for i, row in enumerate(body):
        if not transposed:
            assert len(row) - 1 == len(rows[labels[row[0]]])
        for j, text in enumerate(row[1:]):
            expected = (rows[labels[header[j + 1]]][i] if transposed
                        else rows[labels[row[0]]][j])
            cells.append((f"{row[0]}/{header[j + 1]}", text, expected))
    return cells


FIG4 = {"Split": "Split", "Mono8b (free re-encryption)": "Mono8b",
        "Mono16b": "Mono16b", "Mono32b": "Mono32b", "Mono64b": "Mono64b",
        "Direct AES": "Direct"}
FIG7 = {name: name for name in ("GCM", "SHA-1 (80)", "SHA-1 (160)",
                                "SHA-1 (320)", "SHA-1 (640)")}
FIG9 = {name: name for name in ("Split+GCM", "Mono+GCM", "Split+SHA",
                                "Mono+SHA", "XOM+SHA")}
REGISTRY = {"SecDDR (`secddr`)": "SecDDR",
            "Scattered 2-of-3 (`scattered`)": "Scattered"}

TABLES = {
    "fig4": lambda: quoted("Figure 4", "measured", "fig4_encryption.txt",
                           FIG4),
    "fig5": lambda: grid("Figure 5", "fig5_counter_cache.txt",
                         {"split": "split", "mono64": "mono"},
                         transposed=True),
    "fig7": lambda: quoted("Figure 7", "measured avg", "fig7_auth.txt",
                           FIG7),
    "fig8": lambda: grid("Figure 8", "fig8_auth_requirements.txt",
                         {"GCM": "GCM", "SHA-1 (320)": "SHA"}),
    "fig9": lambda: quoted("Figure 9", "measured", "fig9_combined.txt",
                           FIG9),
    "fig10": lambda: grid("Figure 10", "fig10_sensitivity.txt",
                          {name: name for name in FIG9}),
    "registry": lambda: quoted("Registry backends", "avg nIPC",
                               "registry_backends.txt", REGISTRY),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_measured_numbers_equal_the_results_tables(table):
    cells = TABLES[table]()
    assert cells
    mismatched = [cell for cell in cells if cell[1] != cell[2]]
    assert not mismatched, (
        f"EXPERIMENTS.md ({table}) differs from benchmarks/results: "
        f"(cell, doc, results) {mismatched}")


def test_registry_comparison_column_quotes_split_gcm():
    header, *_ = doc_table("Registry backends")
    split_gcm = results_table("registry_backends.txt")["Split+GCM"][-1]
    assert header[2] == f"vs. Split+GCM ({split_gcm})"
    assert split_gcm == results_table("fig9_combined.txt")["Split+GCM"][-1]


def test_a_hand_edited_number_is_caught(monkeypatch, tmp_path):
    """The check reads what the doc says: one digit changed in one
    table fails it."""
    edited = tmp_path / "EXPERIMENTS.md"
    edited.write_text(EXPERIMENTS.read_text().replace(
        "| Mono32b | — | 0.869 |", "| Mono32b | — | 0.870 |"))
    monkeypatch.setattr(sys.modules[__name__], "EXPERIMENTS", edited)
    cells = TABLES["fig4"]()
    assert [cell for cell in cells if cell[1] != cell[2]] == [
        ("Mono32b", "0.870", "0.869")]
