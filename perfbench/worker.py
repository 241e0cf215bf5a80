"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py <workload|import> <seed> <trace 0|1> [spans-file]

Imports e8jac from the repository's ``src`` (timed as ``import_s`` in
wall time and ``import_cpu_s`` in CPU time), then its CLI module untimed,
runs one pass of the workload (timed as ``wall_s`` and ``cpu_s``), checks
the outputs against ``expected.json`` and prints one JSON line. The
workload ``import`` stops after the imports. With trace 1 the pass runs
under the span tracer, and the spans are written to ``spans-file``.
"""
from __future__ import annotations

import gzip
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    cpu0, t0 = _cpu(), time.perf_counter()
    import e8jac
    import_s = time.perf_counter() - t0
    import_cpu_s = _cpu() - cpu0
    import e8jac.cli  # noqa: F401  (the CLI workloads call it; not set-up)
    src = Path(e8jac.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"e8jac imported from {src}, not from this checkout", file=sys.stderr)
        return 2
    out = {"import_s": import_s, "import_cpu_s": import_cpu_s}
    if workload == "import":
        print(json.dumps(out))
        return 0

    import workloads

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    ops = workloads.plan(workload, seed)

    cpu0, w0 = _cpu(), time.perf_counter()
    results = workloads.run_ops(ops)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures = workloads.check(results, workloads.load_expected())
    out.update(
        wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        attempted=attempted, failures=failures,
    )
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, wall_s)
        out["missing_spans"] = sorted(
            set(spans.REQUIRED[workload]) - set(tracer.names))
        out["span_count"] = len(tracer.names)
        if len(argv) > 3:
            with gzip.open(argv[3], "wt", encoding="utf-8") as fh:
                json.dump({"spans": tracer.span_records()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
