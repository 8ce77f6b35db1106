"""5G NR / 4G LTE physical-layer numerics.

Implements the PHY quantities the paper's §4.1 and Appendix B.1 build
on: numerology (SCS -> slot duration), resource-block counts per
channel bandwidth (TS 38.101-1 Table 5.3.2-1), the CQI and MCS tables
(TS 38.214 §5.1.3/§5.2.2, 256QAM variants), and the transport block
size (TBS) computation of TS 38.214 §5.1.3.2:

    N_info = N_re * R * Qm * v          (paper Eq. 1)

followed by the standard quantization to the final TBS, reproducing
Fig 9's TBS/MCS/#RE mapping.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Tuple

# ----------------------------------------------------------------------
# Numerology (TS 38.211 §4.2-4.3)
# ----------------------------------------------------------------------

#: slots per millisecond (subframe) for each sub-carrier spacing.
SLOTS_PER_MS: Dict[int, int] = {15: 1, 30: 2, 60: 4, 120: 8, 240: 16}

#: OFDM symbols per slot (normal cyclic prefix).
SYMBOLS_PER_SLOT = 14

#: sub-carriers per resource block.
SUBCARRIERS_PER_RB = 12


def slot_duration_s(scs_khz: int) -> float:
    """Slot duration in seconds for the given SCS."""
    if scs_khz not in SLOTS_PER_MS:
        raise ValueError(f"unsupported SCS {scs_khz} kHz")
    return 1e-3 / SLOTS_PER_MS[scs_khz]


# ----------------------------------------------------------------------
# Resource blocks per channel bandwidth (TS 38.101-1 Table 5.3.2-1,
# TS 36.101 Table 5.6-1 for LTE)
# ----------------------------------------------------------------------

#: (bandwidth MHz, SCS kHz) -> N_RB from the 3GPP transmission-bandwidth tables.
_NRB_TABLE: Dict[Tuple[float, int], int] = {
    # NR FR1, 15 kHz
    (5, 15): 25, (10, 15): 52, (15, 15): 79, (20, 15): 106,
    (25, 15): 133, (30, 15): 160, (40, 15): 216, (50, 15): 270,
    # NR FR1, 30 kHz
    (5, 30): 11, (10, 30): 24, (15, 30): 38, (20, 30): 51,
    (25, 30): 65, (30, 30): 78, (40, 30): 106, (50, 30): 133,
    (60, 30): 162, (70, 30): 189, (80, 30): 217, (90, 30): 245,
    (100, 30): 273,
    # NR FR1, 60 kHz
    (10, 60): 11, (20, 60): 24, (40, 60): 51, (60, 60): 79,
    (80, 60): 107, (100, 60): 135,
    # NR FR2, 120 kHz
    (50, 120): 32, (100, 120): 66, (200, 120): 132, (400, 120): 264,
}

#: LTE N_RB (SCS fixed at 15 kHz; narrower guard bands than NR).
_LTE_NRB_TABLE: Dict[float, int] = {1.4: 6, 3: 15, 5: 25, 10: 50, 15: 75, 20: 100}


def num_resource_blocks(bandwidth_mhz: float, scs_khz: int, rat: str = "5G") -> int:
    """Number of resource blocks for a channel (3GPP tables, exact)."""
    if rat == "4G":
        if bandwidth_mhz not in _LTE_NRB_TABLE:
            raise ValueError(f"unsupported LTE bandwidth {bandwidth_mhz} MHz")
        return _LTE_NRB_TABLE[bandwidth_mhz]
    key = (bandwidth_mhz, scs_khz)
    if key in _NRB_TABLE:
        return _NRB_TABLE[key]
    # Fallback: usable spectrum with ~2% guard per edge.
    n_rb = int(bandwidth_mhz * 1e3 * 0.96 / (SUBCARRIERS_PER_RB * scs_khz))
    if n_rb < 1:
        raise ValueError(f"bandwidth {bandwidth_mhz} MHz too narrow for SCS {scs_khz} kHz")
    return n_rb


# ----------------------------------------------------------------------
# MCS table (TS 38.214 Table 5.1.3.1-2, 256QAM) — index -> (Qm, R*1024)
# ----------------------------------------------------------------------

MCS_TABLE_256QAM: Tuple[Tuple[int, float], ...] = (
    (2, 120), (2, 193), (2, 308), (2, 449), (2, 602),
    (4, 378), (4, 434), (4, 490), (4, 553), (4, 616), (4, 658),
    (6, 466), (6, 517), (6, 567), (6, 616), (6, 666), (6, 719), (6, 772),
    (6, 822), (6, 873),
    (8, 682.5), (8, 711), (8, 754), (8, 797), (8, 841), (8, 885), (8, 916.5), (8, 948),
)

MAX_MCS_INDEX = len(MCS_TABLE_256QAM) - 1


def mcs_to_modulation_coding(mcs_index: int) -> Tuple[int, float]:
    """Return (modulation order Qm, code rate R) for an MCS index."""
    if not 0 <= mcs_index <= MAX_MCS_INDEX:
        raise ValueError(f"MCS index must be in [0, {MAX_MCS_INDEX}]")
    qm, r1024 = MCS_TABLE_256QAM[mcs_index]
    return qm, r1024 / 1024.0


def mcs_spectral_efficiency(mcs_index: int) -> float:
    """Bits per resource element for the MCS (Qm * R)."""
    qm, r = mcs_to_modulation_coding(mcs_index)
    return qm * r


# ----------------------------------------------------------------------
# CQI table (TS 38.214 Table 5.2.2.1-3, 256QAM) — index -> efficiency
# ----------------------------------------------------------------------

CQI_EFFICIENCY_256QAM: Tuple[float, ...] = (
    0.0,       # CQI 0: out of range
    0.1523, 0.3770, 0.8770,            # QPSK
    1.4766, 1.9141, 2.4063,            # 16QAM
    2.7305, 3.3223, 3.9023,            # 64QAM
    4.5234, 5.1152, 5.5547,            # 64/256QAM
    6.2266, 6.9141, 7.4063,            # 256QAM
)

MAX_CQI = len(CQI_EFFICIENCY_256QAM) - 1


#: CQI efficiencies (CQI 1..15), strictly increasing, for binary search.
_CQI_EFF_SORTED = CQI_EFFICIENCY_256QAM[1:]


def cqi_from_sinr(sinr_db: float) -> int:
    """Map SINR to CQI via the standard ~2 dB-per-step link abstraction.

    Uses the Shannon-gap approximation ``eff = log2(1 + SINR/gap)`` with a
    3 dB implementation gap, then picks the highest CQI whose efficiency
    is supported.  The efficiency table is strictly increasing, so the
    scan reduces to one binary search.
    """
    gap = 10 ** (3.0 / 10.0)
    capacity = math.log2(1.0 + 10 ** (sinr_db / 10.0) / gap)
    return bisect.bisect_right(_CQI_EFF_SORTED, capacity)


#: MCS spectral efficiencies (Qm * R), strictly increasing over the table.
_MCS_EFF_SORTED = tuple(qm * r1024 / 1024.0 for qm, r1024 in MCS_TABLE_256QAM)

#: CQI -> the highest MCS whose efficiency does not exceed the CQI's.
_MCS_BY_CQI: Tuple[int, ...] = tuple(
    max(0, bisect.bisect_right(_MCS_EFF_SORTED, target + 1e-9) - 1)
    for target in CQI_EFFICIENCY_256QAM
)


def mcs_from_cqi(cqi: int) -> int:
    """Pick the highest MCS whose efficiency does not exceed the CQI's."""
    if not 0 <= cqi <= MAX_CQI:
        raise ValueError(f"CQI must be in [0, {MAX_CQI}]")
    return _MCS_BY_CQI[cqi]


# ----------------------------------------------------------------------
# TBS computation (TS 38.214 §5.1.3.2)
# ----------------------------------------------------------------------

#: TS 38.214 Table 5.1.3.2-1: allowed TBS values for N_info <= 3824.
_TBS_TABLE_SMALL: Tuple[int, ...] = (
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672,
    1736, 1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472,
    2536, 2600, 2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496,
    3624, 3752, 3824,
)

#: REs per PRB cap applied by the spec when computing N_info.
_MAX_RE_PER_PRB = 156

#: default DMRS + control overhead in REs per PRB per slot.
DEFAULT_OVERHEAD_RE_PER_PRB = 18


def resource_elements(
    n_prb: int,
    n_symbols: int = SYMBOLS_PER_SLOT,
    overhead_re_per_prb: int = DEFAULT_OVERHEAD_RE_PER_PRB,
) -> int:
    """Usable resource elements per slot for a PRB allocation.

    ``N_re = min(156, 12 * n_symbols - overhead) * n_prb`` per TS 38.214.
    """
    if n_prb < 0:
        raise ValueError("n_prb must be non-negative")
    if not 1 <= n_symbols <= SYMBOLS_PER_SLOT:
        raise ValueError(f"n_symbols must be in [1, {SYMBOLS_PER_SLOT}]")
    per_prb = SUBCARRIERS_PER_RB * n_symbols - overhead_re_per_prb
    per_prb = max(min(per_prb, _MAX_RE_PER_PRB), 0)
    return per_prb * n_prb


def transport_block_size(
    mcs_index: int,
    n_prb: int,
    n_layers: int = 1,
    n_symbols: int = SYMBOLS_PER_SLOT,
    overhead_re_per_prb: int = DEFAULT_OVERHEAD_RE_PER_PRB,
) -> int:
    """Transport block size in bits per slot (TS 38.214 §5.1.3.2).

    This is the quantizer of the paper's Eq. (1): ``N_info = N_re * R *
    Qm * v`` rounded to a standard-aligned TBS.
    """
    if not 1 <= n_layers <= 8:
        raise ValueError("n_layers must be in [1, 8]")
    n_re = resource_elements(n_prb, n_symbols, overhead_re_per_prb)
    if n_re == 0:
        return 0
    qm, r = mcs_to_modulation_coding(mcs_index)
    n_info = n_re * r * qm * n_layers
    if n_info <= 0:
        return 0
    if n_info <= 3824:
        n = max(3, int(math.floor(math.log2(n_info))) - 6)
        n_info_q = max(24, (1 << n) * (int(n_info) >> n))
        for tbs in _TBS_TABLE_SMALL:
            if tbs >= n_info_q:
                return tbs
        return _TBS_TABLE_SMALL[-1]
    n = int(math.floor(math.log2(n_info - 24))) - 5
    n_info_q = max(3840, (1 << n) * round((n_info - 24) / (1 << n)))
    if r <= 0.25:
        c = math.ceil((n_info_q + 24) / 3816)
    elif n_info_q > 8424:
        c = math.ceil((n_info_q + 24) / 8424)
    else:
        c = 1
    return int(8 * c * math.ceil((n_info_q + 24) / (8 * c)) - 24)


def phy_throughput_mbps(
    mcs_index: int,
    n_prb: int,
    n_layers: int,
    scs_khz: int,
    bler: float = 0.0,
    dl_duty: float = 1.0,
    n_symbols: int = SYMBOLS_PER_SLOT,
) -> float:
    """Sustained PHY-layer downlink throughput for one component carrier.

    ``TBS per slot x slots per second x (1 - BLER) x DL duty`` where the
    duty factor accounts for the TDD downlink share (1.0 for FDD).
    """
    if not 0.0 <= bler < 1.0:
        raise ValueError("bler must be in [0, 1)")
    if not 0.0 < dl_duty <= 1.0:
        raise ValueError("dl_duty must be in (0, 1]")
    tbs = transport_block_size(mcs_index, n_prb, n_layers, n_symbols)
    slots_per_second = SLOTS_PER_MS[scs_khz] * 1000
    return tbs * slots_per_second * (1.0 - bler) * dl_duty / 1e6


#: Typical TDD DL duty factor (e.g. DDDSU-style patterns give ~70-75% DL).
DEFAULT_TDD_DL_DUTY = 0.74


def duplex_dl_duty(duplex: str) -> float:
    """Downlink time share: 1.0 for FDD, ~0.74 for TDD patterns."""
    if duplex == "FDD":
        return 1.0
    if duplex == "TDD":
        return DEFAULT_TDD_DL_DUTY
    raise ValueError(f"unknown duplex mode {duplex!r}")
