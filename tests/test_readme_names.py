"""README's code names resolve: each backticked dotted name that is not a
file name or a name from outside the package is looked up in ``warpcheck``
with ``getattr``, so a rename or a deletion cannot leave README behind."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import warpcheck

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(warpcheck.__path__)}
# heads of the dotted names README takes from elsewhere: NumPy, the gc
# module, and a verdict object in a sentence
OUTSIDE = {"np", "numpy", "gc", "verdict"}
FILE_SUFFIXES = {"py", "json", "csv", "md"}


def _dotted_names(text):
    """Distinct dotted names inside inline code spans, in order of first
    appearance; fenced blocks are left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = []
    for span in re.findall(r"`([^`]+)`", text):
        names += re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)",
                            span)
    return list(dict.fromkeys(names))


NAMES = [n for n in _dotted_names(README)
         if n.split(".")[0] not in OUTSIDE
         and n.rsplit(".", 1)[1] not in FILE_SUFFIXES]


def test_readme_names_some_code():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    # a head is a module of the package or an attribute of the package
    parts = name.split(".")
    if parts[0] == "warpcheck":
        parts = parts[1:]
    obj = warpcheck
    if parts[0] in MODULES:
        obj = importlib.import_module(f"warpcheck.{parts.pop(0)}")
    for part in parts:
        obj = getattr(obj, part)
