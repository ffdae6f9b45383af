"""Benchmark configuration: each bench runs its workload once.

The experiment gates live in ``tools/gate.py`` and the ablation
checks in ``tests/test_ablations.py``; what remains here is the kernel
microbench.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run the (expensive) simulation exactly once under timing."""
    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)
    return _run
