"""Ablation — grid versus random gateway placement (Sec. VII-C discussion)."""

from benchmarks.conftest import ABLATION_SCALE
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import get_sweep


def test_bench_ablation_placement(benchmark):
    artifact = benchmark.pedantic(
        get_sweep("placement").runner,
        args=(ABLATION_SCALE, SweepExecutor()),
        rounds=1,
        iterations=1,
    )
    print()
    print(artifact.text)
    assert set(artifact.raw.runs) == {
        (placement, scheme)
        for placement in ("grid", "random")
        for scheme in ABLATION_SCALE.schemes
    }
    assert all(run.messages_delivered > 0 for run in artifact.raw.runs.values())
