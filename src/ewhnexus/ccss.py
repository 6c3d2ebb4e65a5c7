"""Carbon capture, transfer and storage costs.

A fraction ``beta`` of the captured stream is diverted to chemical reuse;
the remainder travels down the pipeline to storage.  Capital scales with the
plant's full-load daily carbon mass, operations with the captured profile.
"""

from __future__ import annotations

from typing import Sequence

from .quantities import EconParams, add_hourly


def ccss_capital(beta: float, cbar_day: float, econ: EconParams) -> float:
    """Capital to build the capture plant and the storage pipeline [$].

    ((1 - beta) * c_cts + c_ccs) * C_bar * 24, with C_bar * 24 = cbar_day the
    full-load daily carbon mass [ton/day]; both unit capital costs are per
    ton/day (c_ccs set).
    """
    unit_cost = (1.0 - beta) * econ.c_cts + econ.c_ccs
    return unit_cost * cbar_day


def ccss_operational(beta: float, captured: Sequence[tuple[float, int]], econ: EconParams) -> float:
    """Daily cost of running capture plus transfer-to-storage [$ / day].

    Sum over the hourly captured carbon c_t [ton/h], given as (c_t, hours) runs of equal
    hours, of (1-beta)*c_t*r_cts + c_t*r_ccs, priced once per run, added by ``add_hourly``.
    """
    per_ton = (1.0 - beta) * econ.r_cts + econ.r_ccs
    total = 0.0
    for c, hours in captured:
        total = add_hourly(total, c * per_ton, hours)
    return total
