"""3GPP frequency-band registry for the bands observed in the paper.

Table 6 of the paper lists every 4G ("b"-prefixed) and 5G ("n"-prefixed)
band the authors observed across the three US operators, with duplex
mode, carrier frequency and allowed channel bandwidths.  This module
encodes that table, plus band-class helpers (low/mid/high, FR1/FR2)
used throughout the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Band:
    """A 3GPP frequency band as deployed by one or more operators.

    Attributes
    ----------
    name:
        3GPP designation, e.g. ``"n41"`` (5G) or ``"b2"`` (4G).
    rat:
        Radio access technology, ``"4G"`` or ``"5G"``.
    duplex:
        ``"FDD"`` or ``"TDD"``.
    freq_mhz:
        Representative downlink carrier frequency in MHz.
    bandwidths_mhz:
        Channel bandwidths observed for this band (paper Table 6).
    scs_khz:
        Sub-carrier spacings usable on this band. 4G is fixed at 15 kHz;
        5G FR1 typically 15/30 kHz; FR2 120 kHz.
    """

    name: str
    rat: str
    duplex: str
    freq_mhz: float
    bandwidths_mhz: Tuple[float, ...]
    scs_khz: Tuple[int, ...] = (15,)

    def __post_init__(self) -> None:
        if self.rat not in ("4G", "5G"):
            raise ValueError(f"unknown RAT {self.rat!r}")
        if self.duplex not in ("FDD", "TDD"):
            raise ValueError(f"unknown duplex mode {self.duplex!r}")
        if not self.bandwidths_mhz:
            raise ValueError("band must allow at least one bandwidth")

    @property
    def is_5g(self) -> bool:
        return self.rat == "5G"

    # The simulator reads these two per candidate cell and step, so each
    # is computed once per band (``cached_property`` stores the value in
    # the instance dict, which a frozen dataclass still has).
    @cached_property
    def frequency_range(self) -> str:
        """5G frequency range: ``"FR1"`` (sub-7 GHz) or ``"FR2"`` (mmWave)."""
        return "FR2" if self.freq_mhz >= 24_000 else "FR1"

    @cached_property
    def band_class(self) -> str:
        """Low (<1 GHz), mid (1-7 GHz) or high (mmWave) band."""
        if self.freq_mhz < 1_000:
            return "low"
        if self.freq_mhz < 7_100:
            return "mid"
        return "high"

    @property
    def default_scs_khz(self) -> int:
        """Preferred SCS as deployed in practice.

        FR2 uses 120 kHz; TDD FR1 (n41/n77) uses 30 kHz; FDD FR1 NR
        carriers (n25/n71/n5) are commonly run at 15 kHz (the paper's
        Fig 14 shows ~103 RBs on a 20 MHz n25, i.e. 15 kHz SCS); 4G is
        fixed at 15 kHz.
        """
        if self.frequency_range == "FR2":
            return max(self.scs_khz)
        if self.duplex == "TDD" and self.is_5g:
            return 30 if 30 in self.scs_khz else max(self.scs_khz)
        return min(self.scs_khz)


def _b(name: str, duplex: str, freq: float, bws: Tuple[float, ...]) -> Band:
    return Band(name, "4G", duplex, freq, bws, scs_khz=(15,))


def _n(name: str, duplex: str, freq: float, bws: Tuple[float, ...], scs: Tuple[int, ...]) -> Band:
    return Band(name, "5G", duplex, freq, bws, scs_khz=scs)


#: All bands observed in the paper's measurements (Table 6).
BAND_REGISTRY: Dict[str, Band] = {
    band.name: band
    for band in [
        # --- 4G LTE bands -------------------------------------------------
        _b("b2", "FDD", 1_900, (5, 10, 15, 20)),
        _b("b4", "FDD", 1_700, (10, 15, 20)),
        _b("b5", "FDD", 850, (10,)),
        _b("b12", "FDD", 700, (5, 10)),
        _b("b13", "FDD", 700, (10,)),
        _b("b14", "FDD", 700, (10,)),
        _b("b25", "FDD", 1_900, (5,)),
        _b("b29", "FDD", 700, (5,)),
        _b("b30", "FDD", 2_300, (5, 10)),
        _b("b41", "TDD", 2_500, (20,)),
        _b("b46", "TDD", 5_200, (20,)),
        _b("b48", "TDD", 3_600, (10, 20)),
        _b("b66", "FDD", 2_100, (5, 10, 15, 20)),
        _b("b71", "FDD", 600, (5,)),
        # --- 5G NR bands --------------------------------------------------
        _n("n5", "FDD", 850, (10,), (15, 30)),
        _n("n25", "FDD", 1_900, (20,), (15, 30)),
        _n("n41", "TDD", 2_500, (20, 40, 60, 100), (30,)),
        _n("n66", "FDD", 2_100, (5, 10), (15, 30)),
        _n("n71", "FDD", 600, (15, 20), (15, 30)),
        _n("n77", "TDD", 3_700, (40, 60, 100), (30,)),
        _n("n260", "TDD", 39_000, (100,), (120,)),
        _n("n261", "TDD", 28_000, (100,), (120,)),
    ]
}


def get_band(name: str) -> Band:
    """Look up a band by 3GPP name; raises ``KeyError`` with guidance."""
    try:
        return BAND_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BAND_REGISTRY))
        raise KeyError(f"unknown band {name!r}; known bands: {known}") from None


def bands_for_rat(rat: str) -> List[Band]:
    """All registered bands for ``"4G"`` or ``"5G"``."""
    if rat not in ("4G", "5G"):
        raise ValueError(f"unknown RAT {rat!r}")
    return [band for band in BAND_REGISTRY.values() if band.rat == rat]
