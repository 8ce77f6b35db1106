"""Statistical forecasting: the Prophet substitute and MPC's harmonic mean."""

from .harmonic import harmonic_mean
from .prophet import StructuralProphet

__all__ = ["StructuralProphet", "harmonic_mean"]
