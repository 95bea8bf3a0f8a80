"""Named test posets shipped with the package.

Each is parsed from its file under ppart/fixtures/, the same file the
CLI reads, when its name (FIG1, ...) is first read, and then kept.
"""

from pathlib import Path

from .poset import Poset, parse_poset

_DIR = Path(__file__).with_name("fixtures")
_NAMES = frozenset({"FIG1", "EX33", "P1", "P2", "P3", "FORB1", "FORB2", "FORB3", "BOWTIE"})


def fixture(name: str) -> Poset:
    """The poset in fixtures/<name>.poset (name in any case)."""
    return parse_poset((_DIR / f"{name.lower()}.poset").read_text(encoding="utf-8"))


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    P = globals()[name] = fixture(name)
    return P
