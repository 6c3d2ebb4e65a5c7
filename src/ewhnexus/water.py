"""Water supply section: desalination, network transfer, solar seawater.

Exactly one supply mode is active per plan (the alpha exclusivity choice).
Desalination power follows a four-segment piecewise linearization of reverse
osmosis demand; network transfer pays pipe capital plus pumping against the
friction head loss along the pipe.  There is no static lift term: the head
gain equals the head loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantities import (
    DomainError, EconParams, Quantity, TimeSeries, UnitError,
)

# 2.725 ~= rho * g / 3600: pump power in W for flow in m3/h and head in m
PUMP_CONSTANT_W = 2.725


@dataclass(frozen=True)
class Desalination:
    """Local reverse-osmosis plant next to the power station."""


@dataclass(frozen=True)
class NetworkTransfer:
    """Pipe from an existing water network at the given distance."""

    distance: Quantity  # [km]

    def __post_init__(self):
        if self.distance.dim != (0, 0, 0, 0, 0, 1):
            raise UnitError(f"distance must be a length, got {self.distance.unit!r}")
        if self.distance.magnitude < 0:
            raise DomainError("transfer distance must be >= 0")


@dataclass(frozen=True)
class SolarSeawater:
    """Solar-powered electrolysis fed with seawater; no grid electricity."""


WaterMode = Desalination | NetworkTransfer | SolarSeawater


@dataclass(frozen=True)
class WaterSupplyPlan:
    """One exclusive supply mode sized for a maximum production capacity."""

    mode: WaterMode
    w_max: Quantity  # maximum water production capacity [m3/h]

    def __post_init__(self):
        if not isinstance(self.mode, (Desalination, NetworkTransfer, SolarSeawater)):
            raise DomainError(f"unsupported water mode {self.mode!r}")
        if self.w_max.dim != (0, 0, -1, 0, 1, 0):
            raise UnitError(f"w_max must be a volume flow, got {self.w_max.unit!r}")
        if not self.w_max.magnitude > 0:
            raise DomainError("w_max must be positive")

    @property
    def alpha(self) -> tuple[int, int, int]:
        """Mode selector (desalination, transfer, solar); always one-hot."""
        return (int(isinstance(self.mode, Desalination)),
                int(isinstance(self.mode, NetworkTransfer)),
                int(isinstance(self.mode, SolarSeawater)))


def desal_segment(f: float, w_max: float) -> int:
    """Segment index k in 1..4 for flow f, intervals (0.25(k-1)W, 0.25kW].

    Boundaries are lower-exclusive and upper-inclusive; f = 0 belongs to the
    first segment.
    """
    if f < 0:
        raise DomainError(f"flow must be >= 0, got {f!r}")
    if f > w_max:
        raise DomainError(f"flow {f!r} exceeds the production capacity {w_max!r}")
    if f == 0:
        return 1
    return max(1, math.ceil(4.0 * f / w_max))


def desal_power(f: Quantity, w_max: Quantity, econ: EconParams) -> Quantity:
    """Desalination power demand e_des[k] * f on the segment holding f [kW]."""
    f_val = f.value_in("m3/h")
    w_val = w_max.value_in("m3/h")
    k = desal_segment(f_val, w_val)
    return Quantity(econ.e_des[k - 1] * f_val, "kW")


def head_loss(f: Quantity, r_w: float) -> Quantity:
    """Friction head along the pipe, r_w * f^2 [m]."""
    f_val = f.value_in("m3/h")
    if f_val < 0:
        raise DomainError(f"flow must be >= 0, got {f_val!r}")
    return Quantity(r_w * f_val * f_val, "m")


def pump_power(f: Quantity, r_w: float, eta: float) -> Quantity:
    """Pump power lifting flow f over its own head loss [kW]."""
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"pump efficiency must lie in (0, 1], got {eta!r}")
    f_val = f.value_in("m3/h")
    y = head_loss(f, r_w).magnitude
    watts = PUMP_CONSTANT_W * y * f_val / eta
    return Quantity(watts / 1000.0, "kW")


def effective_r_w(econ: EconParams, distance_km: float) -> float:
    """Head-loss coefficient for a pipe of the given length [h2/m5].

    The configured coefficient is stated per 100 km and scales linearly with
    distance, the standard behavior of friction head.
    """
    if distance_km < 0:
        raise DomainError("distance must be >= 0")
    return econ.r_w_per_100km * distance_km / 100.0


def pump_cost(f: float, w_max: float, distance_km: float, econ: EconParams) -> float:
    """Grid electricity bill for pumping flow f [m3/h] down the pipe for one hour [$].

    The flow must lie within [0, w_max], the production capacity [m3/h].
    """
    if not 0.0 <= f <= w_max:
        raise DomainError(f"flow {f:g} m3/h outside the production capacity [0, {w_max:g}]")
    r_w = effective_r_w(econ, distance_km)
    return econ.elec_price * pump_power(Quantity(f, "m3/h"), r_w, econ.eta_pump).magnitude


def water_capital(plan: WaterSupplyPlan, econ: EconParams) -> Quantity:
    """Capital of the selected supply system [$].

    Desalination: W * c_des.  Network transfer: W * c_tw * d with d in
    meters.  Solar seawater: W * c_sw, which must be configured.
    """
    w = plan.w_max.value_in("m3/h")
    mode = plan.mode
    if isinstance(mode, Desalination):
        return Quantity(w * econ.c_des, "$")
    if isinstance(mode, NetworkTransfer):
        d_m = mode.distance.value_in("m")
        return Quantity(w * econ.c_tw * d_m, "$")
    if econ.c_sw is None:
        raise DomainError("c_sw is not configured; a solar-seawater plan cannot be costed")
    return Quantity(w * econ.c_sw, "$")


def water_operational(plan: WaterSupplyPlan, flow: TimeSeries, econ: EconParams) -> Quantity:
    """Daily electricity cost of producing or moving the water [$ / day].

    Desalination pays for the piecewise RO power, transfer for pumping.
    Solar seawater buys no grid electricity at all, so its cost is zero.
    """
    if flow.dim != (0, 0, -1, 0, 1, 0):
        raise UnitError(f"flow series must be a volume flow, got {flow.unit!r}")
    if len(flow) != 24:
        raise DomainError(f"daily operational cost needs a 24 h series, got {len(flow)} steps")
    mode = plan.mode
    if isinstance(mode, SolarSeawater):
        return Quantity(0.0, "$/day")

    w_max = plan.w_max
    values = flow.values_in("m3/h")
    w_val = w_max.value_in("m3/h")
    total = 0.0
    if isinstance(mode, Desalination):
        for f in values:
            p = desal_power(Quantity(f, "m3/h"), w_max, econ).magnitude
            total += econ.elec_price * p
    else:
        d_km = mode.distance.value_in("km")
        for f in values:
            total += pump_cost(f, w_val, d_km, econ)
    return Quantity(total, "$/day")
