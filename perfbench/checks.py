"""Output checks: RunMetrics fingerprints and the pinned values per workload."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Mapping, Tuple

#: The seed at which each workload's fingerprint is pinned.  Seed 0 maps to
#: the presets' own scenario seed (7), so the pinned runs are the presets.
DEFAULT_SEED = 0

#: Fingerprints of the workloads at ``DEFAULT_SEED``, per (workload, size):
#: the first cold run (or, for the sweep and the service, every run of the
#: first sweep and every stored result).  A change here is a change of
#: simulation behaviour, never of speed.
PINNED: Mapping[Tuple[str, str], str] = {
    ("robc-urban-960", "full"):
        "30de70f1989963322b3405be3202fa6da53924809b1ef5966da79ede84973cc8",
    ("robc-urban-960", "smoke"):
        "4e1273681a42d235491662d4d92c0b6373f71d5905fa1152b6a94c9ab93870bf",
    ("megacity-quarter", "full"):
        "cfcd06ec972cf7a888329400ec9355846db71ab6b48e732c03b03ffdd1d39d99",
    ("megacity-quarter", "smoke"):
        "43ff2b199957186a0d55d5f440c25604423e80c0555bdc7ee6e5b4cdf4d10717",
    ("sweep-campaign", "full"):
        "32758cb971ad45104bb934fb928e11348f4b10db150eeebe87984f2a7052557c",
    ("sweep-campaign", "smoke"):
        "790061a142b9cb70daddcc618efbd3ab1c7ee5679a074b33a3afe382e4bf4068",
    ("service-mixed", "full"):
        "2ec8eb8349a584aaca3ac88cdda5dabdc5ef39ad23ab37665a373f0577aaf220",
    ("service-mixed", "smoke"):
        "48f5481be73ceba1177b1b89f68614a5917588d752711a0f167a93582e25952a",
}


def fingerprint(metrics) -> str:
    """A SHA-256 over every raw field of a RunMetrics (order-independent).

    The same payload as the engine suite's goldens, restated so that the
    benchmark cannot drift with the test helpers.
    """
    payload = {
        "scheme": metrics.scheme,
        "messages_generated": metrics.messages_generated,
        "messages_delivered": metrics.messages_delivered,
        "delays_s": metrics.delays_s,
        "hop_counts": metrics.hop_counts,
        "delivery_times_s": metrics.delivery_times_s,
        "transmissions_per_device": metrics.transmissions_per_device,
        "energy_joules_per_device": metrics.energy_joules_per_device,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    ).hexdigest()


def combined_fingerprint(labelled: Iterable[Tuple[Any, Any]]) -> str:
    """One fingerprint over many labelled RunMetrics, independent of order."""
    lines = sorted(f"{label!r}:{fingerprint(metrics)}" for label, metrics in labelled)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def sane(metrics) -> bool:
    """Invariants every run must satisfy, whatever its seed."""
    return (
        0 <= metrics.messages_delivered <= metrics.messages_generated
        and len(metrics.delays_s) == metrics.messages_delivered
        and all(delay >= 0 for delay in metrics.delays_s)
    )


def json_ready(value: Any) -> Any:
    """``value`` as the service serializes it: non-finite floats become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {key: json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    return value


def aggregate(metrics_list: Iterable[Any]) -> Tuple[float, float]:
    """(delivery ratio, mean delay in s) over several runs, weighted by message."""
    generated = delivered = 0
    delay_sum = 0.0
    for metrics in metrics_list:
        generated += metrics.messages_generated
        delivered += metrics.messages_delivered
        delay_sum += float(sum(metrics.delays_s))
    ratio = delivered / generated if generated else 0.0
    delay = delay_sum / delivered if delivered else 0.0
    return ratio, delay
