"""The traced benchmark still reads the package: perfbench's tracer, installed
on a fresh interpreter, sees every span it requires on the real workloads.

The tracer reads InvariantElement.terms and DominantWeight.v, and rebinds
the package's functions by name, so a change to either shows up here and
not only in a benchmark run. The work it counts on expand_deep is pinned,
so a saving cannot come from skipped work. This test reads perfbench and
changes none of it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import e8jac

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import json
import spans, workloads
tracer = spans.Tracer()
spans.install(tracer)
results = workloads.run_ops(workloads.plan({workload!r}, 0))
_, failures = workloads.check(results, workloads.load_expected())
print(json.dumps({{
    "missing": sorted(set(spans.REQUIRED[{workload!r}]) - set(tracer.names)),
    "counters": {{name: tracer.counters[name] for name in spans.COUNT_METRICS}},
    "failures": failures,
}}))
"""


# The traced work of a workload, pinned where a saving must not come from
# skipped work: expand_deep closes 10 orbits through 78 products.
PINNED = {
    "expand_deep": {
        "e8.orbit_array.calls": 69,
        "e8.orbit_array.misses": 10,
        "e8.orbit_array.rows_closed": 72721,
        "e8.batch_reduce.rows": 1253,
        "invring.inv_mul.calls": 78,
        "invring.pair.misses": 67,
    },
}


@pytest.mark.parametrize("workload", ["expand_deep", "verify_core", "qp_index2"])
def test_tracer_sees_every_required_span(workload):
    src = os.path.dirname(os.path.dirname(e8jac.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([src, str(ROOT / "perfbench")]))
    env.pop("E8JAC_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", CODE.format(workload=workload)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["counters"]["invring.pair.misses"] > 0
    assert report["failures"] == []
    pinned = PINNED.get(workload, {})
    assert {name: report["counters"][name] for name in pinned} == pinned
