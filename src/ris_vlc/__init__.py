"""Beam-steering simulation and inverse design for electronically tunable
refractive front-ends in visible-light receivers."""

__version__ = "0.1.0"

from .optics import (Angle, EvanescentOrder, IncidentWave, SteeringGeometry,
                     refraction_angle)
from .diffraction import (IntensityProfile, Metrics, NullBeyondHorizon,
                          evaluate, first_null_angle, medium_wavelength_nm,
                          profile_on_pd, steering_offset_mm)
from .tuning import (DesignTarget, Infeasible, LiquidCrystalActuator,
                     MetaLensActuator, OutOfMaterialRange, actuator_preset,
                     drive, solve, solve_voltage)
from .bench import (FrontEndSummary, ReceiverFrontEnd, RotationSweepResult,
                    compare_table, default_front_end, format_table,
                    rotation_sweep, table_to_csv)
from .scenario import (BenchSpec, ProfileSpec, Scenario, ScenarioError,
                       SweepSpec, load_scenario, scenario_from_dict)
from .runner import RunReport, run, run_bundled

__all__ = [name for name in dir() if not name.startswith("_")]
