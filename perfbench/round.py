"""One round of a workload in a fresh process: set up, verify, check.

Usage: python3 round.py WORKLOAD SEED TRACE T0

T0 is the time.monotonic() reading the caller took just before starting
this process, so set-up time runs from process start to the first
verification call.  Prints one JSON object on one line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# layers that run while the inputs are built, so their spans are kept from
# the set-up phase
SETUP_LAYERS = ("thin_cover.theta_S",)


def main(argv) -> int:
    name, seed, trace, t0 = argv[1], int(argv[2]), argv[3] == "1", float(argv[4])
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "horocover").is_dir():
        # never fall back to an installed horocover: it is not this checkout
        print(f"no horocover sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import workloads

    work = workloads.WORKLOADS[name]()
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    inputs = work.setup(seed)
    if tracer is not None:
        setup_layers = tracer.summary()
        tracer.reset()
    setup_s = time.monotonic() - t0
    start = time.perf_counter()
    outputs = work.verify(inputs)
    verify_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "verify_s": verify_s,
              "peak_rss_mb": peak_rss_mb}
    problems = []
    if tracer is not None:
        layers = tracer.summary()
        for layer in SETUP_LAYERS:
            layers[layer] = setup_layers[layer]
        layers["trace"] = {"verify_s": verify_s,
                           "untraced_s": verify_s - tracer.top_s}
        if abs(tracer.self_time() - tracer.top_s) > 1e-6 * verify_s:
            problems.append("layer self times do not add up to the spans")
        result["layers"] = layers
    problems += work.check(inputs, outputs)
    attempted, failed = work.count(inputs, outputs)
    result.update(problems=problems, attempted=attempted, failed=failed,
                  report=workloads.digest(work.report(outputs)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
