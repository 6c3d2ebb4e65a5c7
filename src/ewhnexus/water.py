"""Water supply section: desalination, network transfer, solar seawater.

Exactly one supply mode is active per scenario (the alpha exclusivity
choice): an instance of exactly one type in ``MODES``, by ``mode_name``.
Desalination power follows a four-segment piecewise linearization of reverse
osmosis demand; network transfer pays pipe capital plus pumping against the
friction head loss along the pipe.  There is no static lift term: the head
gain equals the head loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .quantities import DomainError, EconParams, Quantity, _convert, _field_value, add_hourly

# 2.725 ~= rho * g / 3600: pump power in W for flow in m3/h and head in m
PUMP_CONSTANT_W = 2.725


@dataclass(frozen=True)
class Desalination:
    """Local reverse-osmosis plant next to the power station."""


@dataclass(frozen=True)
class NetworkTransfer:
    """Pipe from an existing water network at the given distance."""

    distance: Quantity
    km: float = field(init=False, repr=False, compare=False)  # distance [km]
    m: float = field(init=False, repr=False, compare=False)   # distance [m]

    def __post_init__(self):
        km = _field_value(self.distance, "km", "distance must be a length")
        object.__setattr__(self, "m", pipe_length_m(self.distance.magnitude, self.distance.unit))
        object.__setattr__(self, "km", km)


def pipe_length_m(magnitude: float, unit: str) -> float:
    """Length [m] of a pipe ``magnitude`` ``unit`` long, which is >= 0 and finite in km and m."""
    if magnitude < 0:
        raise DomainError("transfer distance must be >= 0")
    m = _convert(magnitude, unit, "m")
    if not math.isfinite(m):   # false for an infinite or NaN distance in km too
        raise DomainError(f"transfer distance must be finite in km and m, "
                          f"got {magnitude:g} {unit}")
    return m


@dataclass(frozen=True)
class SolarSeawater:
    """Solar-powered electrolysis fed with seawater; no grid electricity."""


WaterMode = Desalination | NetworkTransfer | SolarSeawater
# water.mode name -> (mode type, {key the mode takes: unit}); the config loads and dumps by it
MODES = {"desalination": (Desalination, {}), "solar_seawater": (SolarSeawater, {}),
         "network_transfer": (NetworkTransfer, {"distance": "km"})}
_NAMES = {kind: name for name, (kind, _) in MODES.items()}   # mode type -> its name


def mode_name(mode) -> str:
    """The one water-mode rule: ``mode``'s name in ``MODES``, if its type is exactly one there."""
    if type(mode) not in _NAMES:
        raise DomainError(f"unsupported water mode {mode!r}")
    return _NAMES[type(mode)]


def desal_segment(f: float, w_max: float) -> int:
    """Segment index k in 1..4 for flow f, intervals (0.25(k-1)W, 0.25kW].

    Boundaries are lower-exclusive and upper-inclusive; f = 0 belongs to the
    first segment.  The caller keeps f within [0, w_max].
    """
    if f == 0:
        return 1
    return math.ceil(4.0 * f / w_max) or 1   # a subnormal f / w_max rounds to 0


def desal_power(f: float, w_max: float, econ: EconParams) -> float:
    """Desalination power e_des[k] * f on the segment holding f [kW].

    f and the production capacity w_max are in m3/h.
    """
    k = desal_segment(f, w_max)
    return econ.e_des[k - 1] * f


def pump_power(f: float, r_w: float, eta: float) -> float:
    """Pump power lifting flow f [m3/h] over its own friction head r_w * f^2 [m] [kW]."""
    return PUMP_CONSTANT_W * (r_w * f * f) * f / eta / 1000.0


def effective_r_w(econ: EconParams, distance_km: float) -> float:
    """Head-loss coefficient for a pipe of the given length [h2/m5].

    The configured coefficient is stated per 100 km and scales linearly with
    distance, the standard behavior of friction head.
    """
    return econ.r_w_per_100km * distance_km / 100.0


def check_flow(f: float, w_max: float) -> None:
    """Reject a flow f outside [0, w_max], the production capacity [m3/h]."""
    if not 0.0 <= f <= w_max:   # false for a NaN flow too
        raise DomainError(f"flow {f:g} m3/h outside the production capacity [0, {w_max:g}]")


def water_capital(mode: WaterMode, w_max: float, econ: EconParams) -> float:
    """Capital of the supply system sized for w_max [m3/h] [$].

    Desalination: W * c_des.  Solar seawater: W * c_sw, which is set.
    Network transfer: the paper prints W * c_tw * d; the engine prices the
    pipe per meter, c_tw [$ / m] * d [m], whatever W.
    """
    if isinstance(mode, Desalination):
        return w_max * econ.c_des
    if isinstance(mode, NetworkTransfer):
        return pipe_capital(mode.m, econ)
    return solar_capital(w_max, econ.c_sw)


def solar_capital(w_max: float, c_sw: float) -> float:
    """Capital of a solar-seawater plant for w_max [m3/h] at c_sw [$ / (m3/h)] [$]."""
    return w_max * c_sw


def pipe_capital(m: float, econ: EconParams) -> float:
    """Capital of a transfer pipe m meters long [$]: c_tw [$ / m] * m, whatever the flow."""
    return econ.c_tw * m


def water_operational(mode: WaterMode, w_max: float, captured: Sequence[tuple[float, int]],
                      k: float, econ: EconParams) -> float:
    """Daily electricity cost of producing or moving the water [$ / day].

    ``captured`` holds the day's carbon [ton/h] as (c, hours) runs of equal hours; an
    hour's water flow is k * c [m3/h], within [0, w_max].  Desalination pays for the
    piecewise RO power, transfer for pumping, solar seawater nothing.  A run is priced once
    and ``add_hourly`` adds its bill once per hour: a full-load day prices one hour, 24 times.
    """
    if isinstance(mode, NetworkTransfer):
        return pumping_operational(mode.km, captured, k, econ)
    if isinstance(mode, SolarSeawater):
        return 0.0
    total = 0.0
    for c, hours in captured:   # the grid bill for one hour at flow k * c [$]
        total = add_hourly(total, econ.elec_price * desal_power(k * c, w_max, econ), hours)
    return total


def pumping_operational(d_km: float, captured: Sequence[tuple[float, int]], k: float,
                        econ: EconParams) -> float:
    """``water_operational``'s pumping bill of a pipe d_km long, by ``add_hourly`` [$ / day]."""
    r_w, eta = effective_r_w(econ, d_km), econ.eta_pump
    total = 0.0
    for c, hours in captured:
        total = add_hourly(total, econ.elec_price * pump_power(k * c, r_w, eta), hours)
    return total
