"""The names README.md cites in backticks resolve in the package."""

import importlib
import pathlib
import re

import pytest

import mpcover

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {"mpcover"} | {p.stem for p in pathlib.Path(mpcover.__file__).parent
                         .glob("*.py") if p.stem != "__init__"}


def cited_names(text: str) -> list:
    """Each backticked dotted name whose first part is the package or one of
    its modules, such as ``mpcover.graphs`` or ``ladder.lowest_d``."""
    return [span for span in re.findall(r"`([^`\n]+)`", text)
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span)
            and span.split(".")[0] in MODULES]


def resolve(name: str):
    """The object a cited name stands for: the longest importable module
    prefix, then ``getattr`` for the rest; raises if some part is missing."""
    parts = name.split(".")
    if parts[0] != "mpcover":
        parts.insert(0, "mpcover")
    obj = importlib.import_module("mpcover")
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            obj = getattr(obj, part)
    return obj


def test_every_name_the_readme_cites_resolves():
    names = cited_names(README.read_text(encoding="utf-8"))
    assert "ladder.lowest_d" in names and "mpcover.search" in names
    for name in names:
        resolve(name)


def test_a_stale_name_fails_to_resolve():
    names = cited_names("the cache `search._ENGINE_CACHE` and `chi.adj`")
    assert names == ["search._ENGINE_CACHE"]
    with pytest.raises(AttributeError):
        resolve(names[0])
