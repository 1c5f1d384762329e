"""The benchmark's four workloads run once and pass their own gates."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest


def _bench_suite():
    """bench/suite.py loaded by file path, as the benchmark loads it."""

    path = Path(__file__).resolve().parents[1] / "bench" / "suite.py"
    spec = importlib.util.spec_from_file_location("bench_suite", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


SUITE = _bench_suite()


@pytest.mark.parametrize("name", sorted(SUITE.WORKLOADS))
def test_bench_workload_passes_check_and_oracle(name):
    workload = SUITE.WORKLOADS[name]
    state = workload.setup(0)
    _seconds, ops, outcome = workload.body(state)
    assert workload.check(state, outcome) == (ops, 0)
    sample = workload.sample(state, outcome, random.Random(0))
    _attempted, failed = workload.oracle(state, sample)
    assert failed == 0
