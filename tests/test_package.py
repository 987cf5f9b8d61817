from __future__ import annotations

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
