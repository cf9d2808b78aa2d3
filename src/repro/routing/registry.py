"""The forwarding-scheme factory registry.

Schemes are built from a name plus the scenario's
:class:`~repro.routing.config.RoutingConfig` — the same shape as the mobility
and radio registries: ``build_scheme("robc", config.routing)`` replaces the
inline ``ROBCScheme(...)`` constructions that used to live in
``experiments/scenario.py``, so scheme parameters become sweepable
configuration instead of code.

The registry is open: :func:`register_scheme_factory` admits external
factories (see ``examples/custom_forwarding_scheme.py`` for the object-level
alternative), and the PRoPHET baseline is registered here exactly like the
paper's schemes — nothing inside the engine special-cases any scheme name.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.rgq import RealTimeGatewayQuality
from repro.routing.base import ForwardingScheme
from repro.routing.config import RoutingConfig
from repro.routing.epidemic import EpidemicScheme
from repro.routing.no_routing import NoRoutingScheme
from repro.routing.prophet import ProphetScheme
from repro.routing.rca_etx_scheme import RCAETXScheme
from repro.routing.robc_scheme import ROBCScheme
from repro.routing.spray_and_wait import SprayAndWaitScheme

#: A factory maps the routing configuration to a fresh scheme instance.
SchemeFactory = Callable[[RoutingConfig], ForwardingScheme]

_FACTORIES: Dict[str, SchemeFactory] = {}


def register_scheme_factory(name: str, factory: SchemeFactory) -> None:
    """Register a scheme factory; names are unique."""
    if name in _FACTORIES:
        raise ValueError(f"duplicate scheme factory name {name!r}")
    _FACTORIES[name] = factory


def scheme_names() -> List[str]:
    """The registered scheme names (sorted)."""
    return sorted(_FACTORIES)


def scheme_factory(name: str) -> SchemeFactory:
    """The factory registered under ``name``; unknown names are a ValueError."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; available: {scheme_names()}"
        ) from None


def build_scheme(name: str, routing: RoutingConfig = RoutingConfig()) -> ForwardingScheme:
    """Build a fresh forwarding scheme from its name and the routing config."""
    return scheme_factory(name)(routing)


register_scheme_factory("no-routing", lambda routing: NoRoutingScheme())
register_scheme_factory(
    "rca-etx",
    lambda routing: RCAETXScheme(max_handover_messages=routing.max_handover_messages),
)
register_scheme_factory(
    "robc",
    lambda routing: ROBCScheme(
        rgq=RealTimeGatewayQuality(
            phi_min=routing.rgq_phi_min, phi_max=routing.rgq_phi_max
        ),
        max_handover_messages=routing.max_handover_messages,
    ),
)
register_scheme_factory(
    "epidemic",
    lambda routing: EpidemicScheme(max_handover_messages=routing.max_handover_messages),
)
register_scheme_factory(
    "spray-and-wait",
    lambda routing: SprayAndWaitScheme(
        initial_copies=routing.spray_initial_copies,
        max_handover_messages=routing.max_handover_messages,
    ),
)
register_scheme_factory(
    "prophet",
    lambda routing: ProphetScheme(
        p_init=routing.prophet_p_init,
        beta=routing.prophet_beta,
        gamma=routing.prophet_gamma,
        max_handover_messages=routing.max_handover_messages,
    ),
)
