"""Self-test of the benchmark itself (short seeded runs, about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit by every workload, that corrupting one request's logits makes
``failed`` nonzero, and that changing the seed changes the generated
inputs but not the metric names.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

SECONDS = 1.0


def _result(name: str, seed: int, trace: bool, tamper: bool = False) -> dict:
    from harness import run_workload

    buffer = io.StringIO()
    parent = os.path.join(run.ROOT, run.OUT_DIR)
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as out_dir, contextlib.redirect_stdout(buffer):
        code = run_workload(name, seed, SECONDS, trace, out_dir, tamper=tamper)
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads as wl
    from harness import END_TO_END, PER_LAYER

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in declared[key]}
        _check(listed == table, f"BENCHMARK.json {key} matches the harness names and units")
    _check([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names every workload")

    for name in run.WORKLOADS:
        names = {}
        for seed in (1, 2):
            for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
                result = _result(name, seed, trace)
                metrics = result["metrics"]
                _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{name} seed {seed} trace {int(trace)}: result keys")
                _check({m: v["unit"] for m, v in metrics.items()} == table,
                       f"{name} seed {seed} trace {int(trace)}: every metric with its unit")
                _check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{name} seed {seed} trace {int(trace)}: outputs correct")
                names[seed, trace] = sorted(metrics)
        _check(names[1, False] == names[2, False] and names[1, True] == names[2, True],
               f"{name}: metric names do not depend on the seed")
        _check(wl.generate(name, 1).config_hash() != wl.generate(name, 2).config_hash(),
               f"{name}: another seed generates other inputs")
        _check(wl.generate(name, 1).config_hash() == wl.generate(name, 1).config_hash(),
               f"{name}: the same seed generates the same inputs")
        tampered = _result(name, 1, False, tamper=True)
        _check(tampered["failed"] >= 1 and not tampered["correct"],
               f"{name}: one corrupted result makes failed nonzero")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
