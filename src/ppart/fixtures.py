"""Named test posets shipped with the package.

Each is parsed from its file under ppart/fixtures/, the same file the
CLI reads.
"""

from pathlib import Path

from .poset import Poset, parse_poset

_DIR = Path(__file__).with_name("fixtures")


def fixture(name: str) -> Poset:
    """The poset in fixtures/<name>.poset (name in any case)."""
    return parse_poset((_DIR / f"{name.lower()}.poset").read_text(encoding="utf-8"))


FIG1 = fixture("fig1")
EX33 = fixture("ex33")
P1 = fixture("p1")
P2 = fixture("p2")
P3 = fixture("p3")
FORB1 = fixture("forb1")
FORB2 = fixture("forb2")
FORB3 = fixture("forb3")
BOWTIE = fixture("bowtie")
