from __future__ import annotations

import re
from pathlib import Path

import cagespec
from cagespec import abelian, caysum, crystal, fullerene, intlinalg, spectra

MODULES = (intlinalg, abelian, caysum, spectra, fullerene, crystal)


def test_package_exports_every_public_name_of_its_modules():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cagespec, name) is getattr(module, name), (module.__name__, name)
    names = [name for module in MODULES for name in module.__all__]
    assert cagespec.__all__ == ["__version__", *dict.fromkeys(names)]
    # public in their modules before the package listed them
    for name in ("EigenPair", "semiedge_counts", "Element", "MAX_DIMENSION", "to_basis_coords"):
        assert name in cagespec.__all__


def test_readme_quick_start_prints_what_its_comments_say():
    # each `expr  # value` line must evaluate to value, where `...` stands
    # for further digits; a comment that is no value (`# raises ...`) and
    # text after `->` are prose
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        expected = comment.split("->")[0].strip()
        if not expected or expected[0] not in "([{'-0123456789":
            exec(code, namespace)
            continue
        pattern = re.escape(expected).replace(re.escape("..."), r"\d*")
        assert re.fullmatch(pattern, repr(eval(code, namespace))), line
        checked += 1
    assert checked == 7
