import importlib

import pytest

import ris_vlc
from ris_vlc import cli

MODULES = ("optics", "diffraction", "tuning", "bench", "scenario", "runner")

# Deleted public names: copies of a quantity that nothing but their own
# tests called, the index and depth solvers that were second entry points
# beside ``tuning.solve``, the two results that ``diffraction.evaluate``
# replaces with one metric row, the wavelength wrapper whose value
# ``IncidentWave.wavelength_nm`` holds, the three voltage -> slab maps
# that ``tuning.drive`` replaces, and the capture fraction that
# ``evaluate`` gives as its ``pd_coverage``.  README lists what replaces
# each.
REMOVED = {
    "optics": ("snell_angle", "TotalInternalReflection", "Wavelength"),
    "diffraction": ("fraunhofer_relative_intensity", "spot_report",
                    "SpotReport", "pattern_power_fraction"),
    "tuning": ("solve_index_for_angle", "solve_depth_for_spot",
               "metalens_apply", "lc_apply", "drive_map"),
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


def test_radiometry_module_is_gone():
    # ``diffraction.evaluate`` gives its transmittance in the metric row
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ris_vlc.radiometry")
    gone = {"transmittance", "TransmittanceResult", "tuning_gain", "TuningGain"}
    assert not gone & set(ris_vlc.__all__)


def test_every_exported_exception_has_an_exit_code():
    """Each exception class the package exports maps to exit 2 or 3, and
    the numerical exit code maps no class the package does not export."""
    exported = {getattr(ris_vlc, n) for n in ris_vlc.__all__}
    errors = {obj for obj in exported
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert errors == {ris_vlc.ScenarioError, *cli._NUMERICAL_ERRORS}
    assert len(cli._NUMERICAL_ERRORS) == 4
