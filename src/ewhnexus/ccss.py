"""Carbon capture, transfer and storage costs.

A fraction ``beta`` of the captured stream is diverted to chemical reuse;
the remainder travels down the pipeline to storage.  Capital scales with the
plant's full-load daily carbon mass, operations with the captured profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantities import (
    DomainError, EconParams, PlantSpec, Quantity, TimeSeries,
    UnitError, check_beta, emissions_at_capacity,
)


@dataclass(frozen=True)
class CcssPlan:
    """Split of captured carbon between reuse (beta) and piped storage."""

    beta: float

    def __post_init__(self):
        check_beta(self.beta)


def ccss_capital(plan: CcssPlan, plant: PlantSpec, econ: EconParams) -> Quantity:
    """Capital to build the capture plant and the storage pipeline [$].

    ((1 - beta) * c_cts + c_ccs) * C_bar, with C_bar the full-load carbon
    mass in ton/day (the capacity basis of both unit capital costs).
    """
    if econ.c_ccs is None:
        raise DomainError("c_ccs (capture plant capital cost) is not configured")
    cbar_ton_day = emissions_at_capacity(plant).value_in("ton/h") * 24.0
    unit_cost = (1.0 - plan.beta) * econ.c_cts + econ.c_ccs
    return Quantity(unit_cost * cbar_ton_day, "$")


def ccss_operational(plan: CcssPlan, captured: TimeSeries, econ: EconParams) -> Quantity:
    """Daily cost of running capture plus transfer-to-storage [$ / day].

    Sum over the 24 hourly steps of (1-beta)*c_t*r_cts + c_t*r_ccs with
    c_t the captured carbon mass in tons at step t.
    """
    if captured.dim != (1, 0, -1, 0, 0, 0):
        raise UnitError(f"captured series must be a mass flow, got {captured.unit!r}")
    if len(captured) != 24:
        raise DomainError(f"daily operational cost needs a 24 h series, got {len(captured)} steps")
    per_ton = (1.0 - plan.beta) * econ.r_cts + econ.r_ccs
    tons = captured.values_in("ton/h")
    return Quantity(sum(c * per_ton for c in tons), "$/day")
