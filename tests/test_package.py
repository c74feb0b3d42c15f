"""The package namespace: one spelling per public name."""

import sturmian_spectra
from sturmian_spectra import cf, geometry, kabelian, quadreal, spectra, words

SUBMODULES = (cf, geometry, kabelian, quadreal, spectra, words)


def test_public_names_are_exactly_the_submodules_exports():
    names = sturmian_spectra.__all__
    assert len(names) == len(set(names))
    exported = set().union(*(mod.__all__ for mod in SUBMODULES))
    assert set(names) == exported | {"__version__"}
    for mod in SUBMODULES:
        assert len(mod.__all__) == len(set(mod.__all__))
        for name in mod.__all__:
            assert getattr(sturmian_spectra, name) is getattr(mod, name)
