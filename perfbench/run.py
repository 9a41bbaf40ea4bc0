"""Wall-clock benchmark of anytime step-up latency and fleet serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload anytime-solo --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``anytime-solo`` -- one closed-loop caller runs ``run(x, 0)`` and then
  ``step_up()`` to the top subnet of LeNet-3C1L (x1.5, 4 subnets,
  float32) for each input before sending the next;
* ``fleet-steady`` -- the continuous-batching fleet serving a seeded
  Poisson-plus-bursts schedule in one ``serve()`` call, repeatedly;
* ``fleet-chaos`` -- the fault fleet under degrade admission, seeded
  ``FaultSpec.random`` chaos, work stealing and the fleet's own tracing.

``--trace 0`` prints the end-to-end metrics from untraced runs.
``--trace 1`` runs the workload untraced and then with every public
entry point of the measured modules wrapped by ``perfbench/tracer.py``,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Artifacts (a self-describing result, the span file and the program's
serving log) go to ``.perfbench_out/`` in the working directory.

Metric notes.  Timings are scaled to nominal machine speed with the
reference pulse of ``perfbench/speed.py``; the raw timings are printed on
the line before the result.  A p99 is taken over inputs or requests, each
first reduced to its median time over the run.  On the fleet workloads
the ``first_result_*`` and ``step_gap_*`` timings are the solo
``IncrementalInference`` replay of each served request (the correctness
oracle, timed outside the serve).
On ``anytime-solo`` there is no simulated clock: ``sim_p95_latency_ms``
is the simulated time of the full walk on the mobile-soc steady-high
node, ``sim_deadline_hit_rate`` the share of inputs that got an answer
and ``sim_mean_subnet`` the levels delivered per input.  Everywhere
``sim_mean_subnet`` counts levels delivered by the deadline (subnet
index + 1; 0 when nothing was ready), so that it is never 0.
"""

from __future__ import annotations

import argparse
import os
import sys

# One process generates the load; pin BLAS to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
WORKLOADS = ("anytime-solo", "fleet-steady", "fleet-chaos")
OUT_DIR = ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        print(f"no program source at {source}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from harness import run_workload  # noqa: E402  (needs the paths above)

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        os.path.join(ROOT, OUT_DIR))


if __name__ == "__main__":
    sys.exit(main())
