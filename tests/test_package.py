"""The package namespace: one spelling per public name."""

import os
import subprocess
import sys

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


def test_the_command_line_loads_no_typing():
    """Annotations come from collections.abc, so importing the command line
    in a fresh `python -S` loads no `typing` module."""
    src = os.path.dirname(os.path.dirname(sturmian_spectra.__file__))
    code = "import sturmian_spectra.cli, sys; assert 'typing' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
