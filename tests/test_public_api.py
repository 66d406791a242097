import importlib

import pytest

import ris_vlc
from ris_vlc import cli

MODULES = ("optics", "diffraction", "radiometry", "tuning", "bench",
           "scenario", "runner")

# Deleted public names: copies of a quantity that nothing but their own
# tests called, and the index and depth solvers that were second entry
# points beside ``tuning.solve``.  README lists what replaces each.
REMOVED = {
    "optics": ("snell_angle", "TotalInternalReflection"),
    "diffraction": ("fraunhofer_relative_intensity",),
    "radiometry": ("tuning_gain", "TuningGain"),
    "tuning": ("solve_index_for_angle", "solve_depth_for_spot"),
    "bench": ("detect",),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ris_vlc.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    assert [n for n in ris_vlc.__all__ if not hasattr(ris_vlc, n)] == []


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(f"ris_vlc.{name}")
    for attr in REMOVED[name]:
        assert not hasattr(module, attr)
        assert attr not in module.__all__
        assert attr not in ris_vlc.__all__


def test_every_exported_exception_has_an_exit_code():
    """Each exception class the package exports maps to exit 2 or 3, and
    the numerical exit code maps no class the package does not export."""
    exported = {getattr(ris_vlc, n) for n in ris_vlc.__all__}
    errors = {obj for obj in exported
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert errors == {ris_vlc.ScenarioError, *cli._NUMERICAL_ERRORS}
    assert len(cli._NUMERICAL_ERRORS) == 4
