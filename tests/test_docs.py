"""docs/ARCHITECTURE.md describes code that exists, and every citation of it
resolves.

A citation names the file and a section number, ``ARCHITECTURE`` or
``ARCHITECTURE.md`` followed by the section sign, possibly a list of them
("ARCHITECTURE" then numbers joined by commas, slashes or "and"). Each
number must be a ``## N.`` heading of the file. Bare section signs are the
paper's and are not checked. CHANGES.md is a log that cites sections as
they stood at their commit, and ``bench/`` holds no citation, so neither
is scanned.

A backticked path in the file (a token ending in a file extension or a
slash) must exist, either from the repository root or under
``src/repro/``.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"

#: The trees and files whose citations are checked.
SCANNED_TREES = ("src", "tests", "tools")
SCANNED_FILES = (
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    "Makefile",
    "docs/PROTOCOL.md",
    ".claude/skills/verify/SKILL.md",
)
SCANNED_SUFFIXES = {".py", ".md", ".txt"}

#: The file's name, then one or more section numbers. A comment marker may
#: sit between the name and the first number where a citation wraps.
CITATION = re.compile(
    r"ARCHITECTURE(?:\.md)?[\s#]*§(\d+)((?:\s*(?:,|/|and)\s*§?\d+)*)"
)
HEADING = re.compile(r"^## (\d+)\. ", re.MULTILINE)
PATH = re.compile(
    r"`([\w./-]+\.(?:py|md|json|toml|txt|cfg|yml|yaml)|[\w./-]+/)"
    r"(?:::[^`]*|:\d+(?:[–-]\d+)?)?`"
)


def _headings():
    return [int(n) for n in HEADING.findall(ARCHITECTURE.read_text())]


def _scanned_files():
    for tree in SCANNED_TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file() and path.suffix in SCANNED_SUFFIXES:
                yield path
    for name in SCANNED_FILES:
        path = ROOT / name
        if path.exists():
            yield path


def _citations(text):
    """(line number, section number) of every citation in ``text``."""
    for match in CITATION.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        numbers = [match.group(1)] + re.findall(r"\d+", match.group(2))
        for number in numbers:
            yield line, int(number)


def test_the_file_has_one_numbered_section_per_subsystem():
    numbers = _headings()
    assert numbers == list(range(1, len(numbers) + 1))
    assert len(ARCHITECTURE.read_text().splitlines()) <= 1200


def test_every_citation_resolves_to_a_heading():
    headings = set(_headings())
    dangling = []
    for path in _scanned_files():
        text = path.read_text(errors="replace")
        for line, number in _citations(text):
            if number not in headings:
                dangling.append(f"{path.relative_to(ROOT)}:{line}: §{number}")
    assert dangling == []


def test_every_backticked_path_exists():
    missing = sorted(
        {
            path
            for path in PATH.findall(ARCHITECTURE.read_text())
            if not (ROOT / path).exists() and not (ROOT / "src" / "repro" / path).exists()
        }
    )
    assert missing == []


@pytest.mark.parametrize(
    "text, cited",
    [
        ("see ARCHITECTURE §3.", [3]),
        ("(docs/ARCHITECTURE.md §12)", [12]),
        ("ARCHITECTURE §7/§11, and", [7, 11]),
        ("ARCHITECTURE §3, §4 and §10", [3, 4, 10]),
        ("(ARCHITECTURE\n# §8)", [8]),
        ("the paper's §5.1 and `git show fb88aca:docs/ARCHITECTURE.md` §18", []),
    ],
)
def test_the_citation_pattern(text, cited):
    assert [number for _line, number in _citations(text)] == cited
