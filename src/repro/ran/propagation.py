"""Radio propagation: pathloss, link budget, fast fading.

Grounded in the 3GPP TR 38.901 UMa/UMi models.  What matters for the
paper's phenomena is that (a) pathloss grows with carrier frequency, so
low-band (n71) reaches farther than mid-band (n41) and far farther than
mmWave — driving PCell choice and SCell availability (Figs 27-28);
(b) shadowing is *spatially correlated* but only *partially correlated
across bands* at the same location, reproducing the intra- vs
inter-band RSRP correlation structure of Figs 11-13 (that state lives
in ``TraceSimulator._advance_radio_processes``); and (c) fast fading is
time-correlated with mobility (Doppler), giving the 10 ms traces their
short-term texture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: thermal noise power spectral density in dBm/Hz at 290 K.
THERMAL_NOISE_DBM_HZ = -174.0


def freespace_pathloss_db(distance_m: float, freq_mhz: float) -> float:
    """Free-space pathloss (Friis)."""
    distance_m = max(distance_m, 1.0)
    return 20 * math.log10(distance_m) + 20 * math.log10(freq_mhz) - 27.55


def urban_macro_pathloss_db(distance_m: float, freq_mhz: float, los: bool = False) -> float:
    """3GPP TR 38.901 UMa pathloss (simplified, d in metres, f in MHz).

    LOS:  PL = 28.0 + 22 log10(d) + 20 log10(f_GHz)
    NLOS: PL = 13.54 + 39.08 log10(d) + 20 log10(f_GHz) - 0.6(h_UT - 1.5)
    """
    distance_m = max(distance_m, 10.0)
    f_ghz = freq_mhz / 1e3
    if los:
        return 28.0 + 22.0 * math.log10(distance_m) + 20.0 * math.log10(f_ghz)
    return 13.54 + 39.08 * math.log10(distance_m) + 20.0 * math.log10(f_ghz)


def urban_macro_pathloss_db_array(
    distance_m: np.ndarray, freq_mhz: np.ndarray, los: bool = False
) -> np.ndarray:
    """Vectorized :func:`urban_macro_pathloss_db` over candidate arrays.

    Same model expressions evaluated with numpy ufuncs; SIMD
    transcendentals round differently from ``math.log10`` in the last
    ulp, so results match the scalar path to ~1e-12 relative, not bit
    for bit (see the simulator's per-field equivalence tests).
    """
    d = np.maximum(np.asarray(distance_m, dtype=np.float64), 10.0)
    f_ghz = np.asarray(freq_mhz, dtype=np.float64) / 1e3
    if los:
        return 28.0 + 22.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
    return 13.54 + 39.08 * np.log10(d) + 20.0 * np.log10(f_ghz)


def indoor_penetration_loss_db(freq_mhz: float) -> float:
    """Building-entry loss, strongly frequency dependent (TR 38.901 §7.4.3).

    Low band ~12 dB, mid band ~16-19 dB, mmWave effectively blocking
    (~49 dB); this frequency gap is why OpZ anchors indoor CA on the
    n71 FDD PCell while n41 survives only as an SCell (Fig 28).
    """
    f_ghz = freq_mhz / 1e3
    return 10.0 + 8.0 * f_ghz ** 0.7


@dataclass
class FastFadingProcess:
    """Time-correlated small-scale fading margin in dB (AR(1) model).

    The correlation time scales inversely with Doppler spread, i.e.
    with UE speed and carrier frequency; stationary UEs see slowly
    varying fading while driving UEs see fast variation, matching the
    per-granularity texture of the measured traces.
    """

    sigma_db: float = 2.0

    def __post_init__(self) -> None:
        self._state = 0.0
        self._initialized = False

    @staticmethod
    def coherence_time_s(speed_mps: float, freq_mhz: float) -> float:
        """Approximate channel coherence time (0.423 / f_doppler)."""
        speed = max(speed_mps, 0.05)
        doppler_hz = speed * freq_mhz * 1e6 / 3e8
        return 0.423 / doppler_hz

    def sample(self, dt_s: float, speed_mps: float, freq_mhz: float, rng: np.random.Generator) -> float:
        rho = math.exp(-dt_s / self.coherence_time_s(speed_mps, freq_mhz))
        if not self._initialized:
            self._state = rng.normal(0.0, 1.0)
            self._initialized = True
        else:
            self._state = rho * self._state + math.sqrt(max(1.0 - rho * rho, 0.0)) * rng.normal(0.0, 1.0)
        return self.sigma_db * self._state


def noise_power_dbm(bandwidth_mhz: float, noise_figure_db: float = 7.0) -> float:
    """Receiver noise power over the channel bandwidth."""
    if bandwidth_mhz <= 0:
        raise ValueError("bandwidth must be positive")
    return THERMAL_NOISE_DBM_HZ + 10 * math.log10(bandwidth_mhz * 1e6) + noise_figure_db


def rsrp_dbm(
    tx_power_dbm: float,
    pathloss_db: float,
    shadowing_db: float = 0.0,
    fading_db: float = 0.0,
    n_rb: int = 100,
) -> float:
    """Reference-signal received power: per-RE received power.

    Total cell power is spread over all sub-carriers; RSRP is the power
    of a single reference RE.
    """
    per_re_tx = tx_power_dbm - 10 * math.log10(max(n_rb, 1) * 12)
    return per_re_tx - pathloss_db - shadowing_db + fading_db


def sinr_db(
    rsrp: float,
    noise_dbm_per_re: float,
    interference_dbm_per_re: float = -math.inf,
) -> float:
    """SINR per RE given noise and co-channel interference powers."""
    signal_mw = 10 ** (rsrp / 10.0)
    noise_mw = 10 ** (noise_dbm_per_re / 10.0)
    interference_mw = 0.0 if interference_dbm_per_re == -math.inf else 10 ** (interference_dbm_per_re / 10.0)
    return 10 * math.log10(signal_mw / (noise_mw + interference_mw))


def rsrq_db(rsrp: float, rssi_dbm: float, n_rb: int) -> float:
    """Reference-signal received quality: N_RB * RSRP / RSSI (in dB)."""
    if n_rb < 1:
        raise ValueError("n_rb must be >= 1")
    return 10 * math.log10(n_rb) + rsrp - rssi_dbm
