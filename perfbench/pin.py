"""Write ``expected.json``: the outputs the benchmark's checks compare with.

    python3 perfbench/pin.py

Runs the ``verify_core`` and ``expand_deep`` operations once, in this
process, and records every verify check name (each must pass), the
``coset-minima`` value and the sha256 of every ``expand --format json``
output. ``qp_index2`` needs no pin: each call must return its sample count.
Run it only at a commit whose outputs are known to be right; the pins are
the benchmark's correctness gate.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {"verify": {}, "coset_minima": {}, "expand": {}}
    for workload in ("verify_core", "expand_deep"):
        for name, out, err in workloads.run_ops(workloads.plan(workload, 0)):
            if err is not None:
                print(f"{name} raised:\n{err}", file=sys.stderr)
                return 1
            code, text = out
            kind, _, arg = name.partition(":")
            if kind == "verify":
                checks = json.loads(text)["checks"]
                bad = [c["name"] for c in checks if not c["ok"]]
                if code != 0 or bad:
                    print(f"{name} failed: {bad}", file=sys.stderr)
                    return 1
                pins["verify"][arg] = [c["name"] for c in checks]
            elif kind == "coset-minima":
                pins["coset_minima"][arg] = json.loads(text)["max_min_norm"]
            else:
                pins["expand"][arg] = workloads.sha256(text)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    n_checks = sum(len(v) for v in pins["verify"].values())
    print(f"pinned {n_checks} verify checks, {len(pins['expand'])} expansions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
