"""Ablation — the EWMA weight α of Eq. (4) (the paper fixes α = 0.5)."""

from benchmarks.conftest import ABLATION_SCALE
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import get_sweep


def test_bench_ablation_alpha(benchmark):
    artifact = benchmark.pedantic(
        get_sweep("alpha").runner,
        args=(ABLATION_SCALE, SweepExecutor()),
        rounds=1,
        iterations=1,
    )
    print()
    print(artifact.text)
    assert set(artifact.raw.runs) == {(alpha,) for alpha in (0.1, 0.3, 0.5, 0.7, 0.9)}
    assert all(run.messages_delivered > 0 for run in artifact.raw.runs.values())
