"""Every benchmark workload, built and run once at seed 1.

perfbench/workloads.py drives kpplab through the CLI flags --jobs,
--seed, --quiet and --output-dir, the keys of perfbench/configs, the
summary keys its margins read and the library signatures of its
dispersion cells.  A change that breaks any of them fails here, not
first in the benchmark.
"""

import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_verdicts_hold(name, tmp_path):
    units = workloads.WORKLOADS[name](str(BENCH.parent), str(BENCH), str(tmp_path), 1)
    assert units
    for unit in units:
        verdicts = workloads.run_unit(unit)
        assert verdicts and all(v.ok for v in verdicts), verdicts
