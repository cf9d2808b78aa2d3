"""Forwarding schemes.

Each scheme is a strategy object the simulation engine consults whenever a
device overhears another device's uplink: "should I hand over part of my
queue to the transmitter, and how much?".  The three schemes evaluated in the
paper are NoRouting (plain LoRaWAN with an application-layer queue), the
greedy RCA-ETX scheme of Sec. IV and ROBC of Sec. V.  Three classic DTN
baselines — epidemic routing, binary spray-and-wait and PRoPHET-style
delivery-predictability forwarding — are included as extensions for
comparison studies.

Schemes are parameterized by :class:`~repro.routing.config.RoutingConfig`
(a frozen section of every ``ScenarioConfig``) and built by name through the
factory registry in :mod:`repro.routing.registry` (:func:`build_scheme`,
:func:`scheme_names`).
"""

from repro.routing.base import ForwardingDecision, ForwardingScheme
from repro.routing.config import BUFFER_POLICIES, BufferConfig, RoutingConfig
from repro.routing.epidemic import EpidemicScheme
from repro.routing.no_routing import NoRoutingScheme
from repro.routing.prophet import ProphetScheme
from repro.routing.rca_etx_scheme import RCAETXScheme
from repro.routing.registry import (
    SchemeFactory,
    build_scheme,
    register_scheme_factory,
    scheme_names,
)
from repro.routing.robc_scheme import ROBCScheme
from repro.routing.spray_and_wait import SprayAndWaitScheme

__all__ = [
    "BUFFER_POLICIES",
    "BufferConfig",
    "ForwardingDecision",
    "ForwardingScheme",
    "EpidemicScheme",
    "NoRoutingScheme",
    "ProphetScheme",
    "RCAETXScheme",
    "ROBCScheme",
    "RoutingConfig",
    "SchemeFactory",
    "SprayAndWaitScheme",
    "build_scheme",
    "register_scheme_factory",
    "scheme_names",
]
