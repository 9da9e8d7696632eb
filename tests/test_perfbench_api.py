"""The benchmark's workloads, run in-process against this tree.

``perfbench/workloads.py`` calls the library by name; a refactor that renames
or re-signs one of those functions fails here rather than in a benchmark run.
The files under ``perfbench/`` are only read.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman import hartogs, opnorm, quadrature, reproduce

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["point-queries", "operator-reports"])
def test_one_unit_passes_every_gate(tmp_path, workload):
    tracer = _load("tracer").NullTracer()
    wl = _load("workloads").WORKLOADS[workload](1, 1.0, str(tmp_path), tracer)
    wl.setup()
    ops = wl.unit()
    assert ops
    assert all(op.ok for op in ops), [f"{op.name}: {op.detail}" for op in ops if not op.ok]


def test_operator_reports_run_the_pinned_grids(tmp_path, monkeypatch):
    # perfbench states its grids itself; they must stay the ones the checks and the CLI read
    calls = {}
    for module, name in ((opnorm, "discretize_berezin"), (opnorm, "discretize_berezin_radial"),
                         (opnorm, "discretize_absolute_radial"), (hartogs, "blowup_table")):
        def recorded(*args, fn=getattr(module, name), **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            result = fn(*args, **kwargs)
            calls.setdefault(fn.__name__, []).append((bound.arguments, result))
            return result
        monkeypatch.setattr(module, name, recorded)
    wl = _load("workloads").WORKLOADS["operator-reports"](1, 1.0, str(tmp_path),
                                                           _load("tracer").NullTracer())
    wl.setup()
    assert all(op.ok for op in wl.unit())
    (args, matrix), = calls["discretize_berezin"]
    meta = args["rule"].meta
    assert (meta.radial_n, meta.angular_n, meta.grading) == (*reproduce.ROWS_GRID, quadrature.GRADING)
    np.testing.assert_array_equal(matrix.row_nodes, reproduce.row_nodes(args["rule"]))
    assert {(a["radial_n"], a["depth"], a["sector"]) for a, _ in calls["discretize_berezin_radial"]
            } == {(*opnorm.BEREZIN_RADIAL, 0)}
    assert {(a["radial_n"], a["depth"]) for a, _ in calls["discretize_absolute_radial"]
            } == {opnorm.ABSOLUTE_RADIAL}
    (args, _), = calls["blowup_table"]
    assert (tuple(args["eps_list"]), args["radial_n"]) == (hartogs.BLOWUP_EPS, hartogs.L2_NODES)


def test_reproduce_workload_resolves_its_names(tmp_path):
    # the names only: tests/test_acceptance.py runs the checks themselves
    workloads = _load("workloads")
    wl = workloads.WORKLOADS["reproduce"](1, 1.0, str(tmp_path), _load("tracer").NullTracer())
    assert wl.builders
    assert all(obj is getattr(reproduce, name) and callable(obj.cache_clear)
               for name, obj in wl.builders.items())
    assert all(callable(getattr(reproduce, builder, None))
               for _, _, builder in workloads.PROBE_RULES)
    assert [getattr(reproduce, name) for name in wl.checks] == list(reproduce.ALL_CHECKS)
