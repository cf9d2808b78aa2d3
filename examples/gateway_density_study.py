"""Study how gateway density affects each forwarding scheme (mini Fig. 8/9).

Sweeps the number of gateways for a fixed bus network and prints delay and
throughput per scheme, i.e. a reduced version of the paper's Figs. 8 and 9.
The base scenario comes from the registry (the CI-sized ``rural-smoke``
preset, lengthened to two hours); the nine runs fan out over one worker
process per CPU via the :class:`SweepExecutor` and are served from the
on-disk cache on a re-run — results are identical in every mode, because
each run is fully determined by its configuration.

The CLI equivalent of the full-size version of this study is
``repro sweep fig8``/``repro sweep fig9``.

Usage::

    PYTHONPATH=src python examples/gateway_density_study.py
"""

import os

from repro.experiments import RunSpec, SweepExecutor, get_preset
from repro.experiments.registry import apply_overrides
from repro.experiments.reporting import format_table


def main() -> None:
    base = apply_overrides(
        get_preset("rural-smoke").config,
        duration_s=2 * 3600.0,
        num_routes=10,
        trips_per_route=4,
        seed=17,
    )
    cache_dir = os.path.join(os.path.dirname(__file__), ".sweep-cache")
    if os.path.isdir(cache_dir) and os.listdir(cache_dir):
        print(f"note: serving matching runs from {cache_dir} (delete it to recompute)")
    executor = SweepExecutor.from_env(
        default_workers=os.cpu_count() or 1,
        cache_dir=cache_dir,
    )
    points = [
        (count, scheme)
        for count in (3, 5, 8)
        for scheme in ("no-routing", "rca-etx", "robc")
    ]
    specs = [
        RunSpec(config=base.with_scheme(scheme).with_gateways(count), nominal_gateways=count)
        for count, scheme in points
    ]

    rows = []
    for (count, scheme), run in zip(points, executor.run_metrics(specs)):
        rows.append(
            (count, scheme, f"{run.mean_delay_s:.1f}", run.throughput_messages,
             f"{run.delivery_ratio:.2%}")
        )
    print(format_table(("gateways", "scheme", "mean delay [s]", "delivered", "ratio"), rows))


if __name__ == "__main__":
    main()
