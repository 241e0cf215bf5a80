"""e8jac benchmark: end-to-end and per-layer metrics of cold-process passes.

    python3 perfbench/run.py --workload verify_core --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh Python process (``worker.py``), one process at a
time, so every in-process memo of e8jac starts cold, as it does for each
command-line invocation. Passes repeat until ``--seconds`` would be
exceeded, with at least two per run. With ``--trace 0`` the last line of
output is a JSON object with the end-to-end metrics (medians over the
run's passes); with ``--trace 1`` traced and untraced passes alternate and
it holds the per-layer metrics of the traced passes. A fuller report,
with every pass, the provenance and the load average around each pass,
is written to ``.perfbench_out/`` at the repository root. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORTS_PER_PASS = 4  # import-only processes before each pass, for setup_s
MIN_PASSES = 2  # of each kind the run reports: untraced, or traced
RUN_CAP_S = 170.0  # no pass starts that would end a run after this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("E8JAC_BUDGET", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """One worker process; returns its record with the load around it."""
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {args} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(
            f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["load_before"] = load_before
    rec["load_after"] = os.getloadavg()
    return rec


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    start = time.monotonic()

    def remaining() -> float:
        return RUN_CAP_S - (time.monotonic() - start)

    run_child(["import", "0", "0"], env, remaining())  # writes bytecode; untimed
    imports: list[dict] = []
    passes: list[dict] = []
    traced: list[dict] = []
    cycles: list[float] = []
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    while True:
        if cycles:
            est = statistics.median(cycles)
            enough = len(traced if trace else passes) >= MIN_PASSES
            if (enough and time.monotonic() - start + est > seconds) or est > remaining():
                break
        cycle_start = time.monotonic()
        # Import samples are spread over the run, so that setup_s averages
        # over the same stretch of machine load as the passes do. A traced
        # run does not report setup_s.
        imports.extend(run_child(["import", "0", "0"], env, remaining())
                       for _ in range(0 if trace else IMPORTS_PER_PASS))
        as_traced = trace and len(traced) <= len(passes)
        args = [workload, str(seed), "1" if as_traced else "0"]
        if as_traced and not traced:
            args.append(str(span_file))
        rec = run_child(args, env, remaining())
        (traced if as_traced else passes).append(rec)
        cycles.append(time.monotonic() - cycle_start)
    if not passes:
        raise HarnessError("no untraced pass fitted in the run")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "imports": imports, "passes": passes,
        "traced": traced, "run_s": time.monotonic() - start,
        "span_file": str(span_file.relative_to(ROOT)) if traced else None,
    }


def summarize(run: dict) -> tuple[dict, list[str]]:
    """Result object (the last output line) and the human-readable lines."""
    passes, traced = run["passes"], run["traced"]
    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    lines = []
    metrics: dict[str, dict] = {}
    if not run["trace"]:
        samples = {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": [r["import_cpu_s"] for r in run["imports"] + passes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        for name, unit in END_TO_END.items():
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            lines.append(
                f"{run['workload']:<12} {name:<12} {med:10.4f} {unit:<3} "
                f"(median of {len(samples[name])}; quartiles {q1:.4f}..{q3:.4f})")
    else:
        layers = [t["layers"] for t in traced]
        for t in traced:
            if t["missing_spans"]:
                raise HarnessError(
                    f"spans never fired on {run['workload']}: "
                    f"{', '.join(t['missing_spans'])}")
            for key in spans.COUNT_METRICS:
                if t["layers"][key] != layers[0][key]:
                    raise HarnessError(f"count {key} differs between traced passes")
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        for name in layers[0]:
            if name in spans.COUNT_METRICS:  # equal in every traced pass
                value = layers[0][name]
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": spans.unit_of(name)}
        metrics["trace_overhead"] = {
            "value": traced_wall / untraced_wall - 1, "unit": "ratio"}
        for name, m in metrics.items():
            lines.append(
                f"{run['workload']:<12} {name:<38} {m['value']:14.4f} {m['unit']}")
    ratio = len(failures) / attempted if attempted else 1.0
    lines.append(
        f"{run['workload']:<12} fail_ratio   {ratio:10.4f}     "
        f"({len(failures)} of {attempted} operations failed)")
    lines.extend(f"  FAILED {f}" for f in failures[:20])
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def write_report(run: dict, result: dict, prov: dict) -> Path:
    path = OUT_DIR / (
        f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json")
    path.write_text(json.dumps(
        {"provenance": prov, "result": result, "run": run}, indent=1) + "\n",
        encoding="utf-8")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "e8jac" / "__init__.py").is_file():
        print(f"no e8jac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance()
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            result, lines = summarize(run)
            report = write_report(run, result, prov)
            print("\n".join(lines))
            print(f"report: {report.relative_to(ROOT)}")
            results[workload] = result
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({"provenance": prov}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
