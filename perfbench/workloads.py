"""The benchmark's workloads, and the checks on what they produce.

A workload is a list of operations. Each operation is one call into e8jac's
public surface: one ``cli.main`` invocation (which yields one or more checked
results) or one ``check_quasi_periodicity`` call. Operations run inside the
timed region; their outputs are only recorded there, and compared with the
pinned outputs in ``expected.json`` afterwards.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The verify suites of ``verify_core``. ``identities`` is left out because
# its θ² check at q^10 repeats ``expand_deep``; ``properties`` because one
# pass of it takes about ten minutes.
VERIFY_SUITES = (
    "index2", "index3", "index4", "systems", "lf", "lattice", "bounds",
    "structure",
)
COSET_T = 6
DEEP_FORM, DEEP_ORDER = "phi_-4_2", 10
QP_FORMS = ("b2", "u12_2", "v14_2", "w16_2", "x2")
QP_SAMPLES = 100

WORKLOADS = ("verify_core", "expand_deep", "qp_index2")


def _cli(argv):
    """Run ``e8jac.cli.main`` on argv; return (exit code, captured stdout)."""
    from e8jac import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def buildable_forms() -> list[str]:
    from e8jac import REGISTRY

    return sorted(name for name, entry in REGISTRY.items() if entry.buildable)


def plan(workload: str, seed: int) -> list[tuple[str, object]]:
    """The operations of one pass, as (name, zero-argument callable).

    The seed only reorders or parameterizes inputs; it never changes what
    a correct output is, except for ``qp_index2`` where it is the sampling
    seed that ``check_quasi_periodicity`` takes as input.
    """
    if workload == "verify_core":
        ops = [
            (f"verify:{s}",
             lambda s=s: _cli(["verify", "--suite", s, "--format", "json"]))
            for s in VERIFY_SUITES
        ]
        ops.append((
            f"coset-minima:{COSET_T}",
            lambda: _cli(["coset-minima", "--t", str(COSET_T), "--format", "json"]),
        ))
        forms = buildable_forms()
        random.Random(seed).shuffle(forms)
        ops.extend(
            (f"expand:{f}",
             lambda f=f: _cli(["expand", "--form", f, "--format", "json"]))
            for f in forms
        )
        return ops
    if workload == "expand_deep":
        argv = ["expand", "--form", DEEP_FORM, "--order", str(DEEP_ORDER),
                "--format", "json"]
        return [(f"expand:{DEEP_FORM}@{DEEP_ORDER}", lambda: _cli(argv))]
    if workload == "qp_index2":
        from e8jac import build, check_quasi_periodicity

        return [
            (f"qp:{f}",
             lambda f=f: check_quasi_periodicity(
                 build(f), samples=QP_SAMPLES, seed=seed))
            for f in QP_FORMS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_ops(ops) -> list[tuple[str, object, str | None]]:
    """Run every operation; an exception is recorded, not raised."""
    results = []
    for name, fn in ops:
        try:
            results.append((name, fn(), None))
        except (Exception, SystemExit):  # a failed operation must not stop the pass
            results.append((name, None, traceback.format_exc(limit=3)))
    return results


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check(results, expected: dict) -> tuple[int, list[str]]:
    """Compare recorded outputs with the pins.

    Returns (operations attempted, one message per failed operation). A
    verify invocation counts one operation per pinned check; every other
    invocation counts one.
    """
    attempted = 0
    failures: list[str] = []
    for name, out, err in results:
        kind, _, arg = name.partition(":")
        if kind == "verify":
            pinned = expected["verify"][arg]
            attempted += len(pinned)
            got = {}
            if err is None and out[0] in (0, 1):
                try:
                    got = {c["name"]: c["ok"] for c in json.loads(out[1])["checks"]}
                except (ValueError, KeyError, TypeError):
                    got = {}
            for check_name in pinned:
                if got.get(check_name) is not True:
                    failures.append(f"{name}: {check_name}: {got.get(check_name, err)}")
            extra = sorted(set(got) - set(pinned))
            attempted += len(extra)
            failures.extend(f"{name}: unpinned check {c}" for c in extra)
            continue
        attempted += 1
        if err is not None:
            failures.append(f"{name}: raised {err.strip().splitlines()[-1]}")
        elif kind == "coset-minima":
            want = expected["coset_minima"][arg]
            try:
                got = json.loads(out[1])["max_min_norm"]
            except (ValueError, KeyError, TypeError):
                got = None
            if out[0] != 0 or got != want:
                failures.append(f"{name}: exit {out[0]}, got {got}, want {want}")
        elif kind == "expand":
            want = expected["expand"].get(arg)
            got = sha256(out[1])
            if out[0] != 0 or got != want:
                failures.append(f"{name}: exit {out[0]}, sha256 {got}, want {want}")
        elif kind == "qp":
            if out != QP_SAMPLES:
                failures.append(f"{name}: {out} checks, want {QP_SAMPLES}")
        else:
            failures.append(f"{name}: no check for this operation")
    return attempted, failures
