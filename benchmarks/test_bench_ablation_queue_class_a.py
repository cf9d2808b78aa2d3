"""Ablation — Modified Class-C versus Queue-based Class-A (Sec. VI / VII-C).

The paper reports that Queue-based Class-A performs on par with Modified
Class-C while saving some (under 20 %) energy.
"""

from benchmarks.conftest import ABLATION_SCALE
from repro.experiments.parallel import SweepExecutor
from repro.experiments.registry import get_sweep


def test_bench_ablation_queue_class_a(benchmark):
    artifact = benchmark.pedantic(
        get_sweep("device-class").runner,
        args=(ABLATION_SCALE, SweepExecutor()),
        rounds=1,
        iterations=1,
    )
    print()
    print(artifact.text)
    modified_c = artifact.raw.runs[("modified-class-c",)]
    queue_a = artifact.raw.runs[("queue-based-class-a",)]
    # Energy must not increase, throughput must stay in the same ballpark.
    assert queue_a.mean_energy_joules <= modified_c.mean_energy_joules * 1.01
    assert queue_a.throughput_messages >= 0.7 * modified_c.throughput_messages
