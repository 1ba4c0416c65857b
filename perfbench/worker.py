"""One benchmark process: import ``tmsvlab.cli``, run ``cli.main`` on each
argv of a spec, and write timings and what the gates need as JSON.

Usage: ``python3 perfbench/worker.py SPEC.json``.  The spec holds ``argvs``
(a list of argument lists; empty for a set-up probe), ``trace`` (bool) and
``result`` (the path of the JSON to write).  The package is imported from
the checkout's ``src/``.  The caller pins the BLAS thread count in the
environment before this process starts.
"""

import json
import resource
import sys
import time
from pathlib import Path


SRC = Path(__file__).resolve().parents[1] / "src"


def run(spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tmsvlab.cli as cli
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "package": cli.__file__}
    if spec["argvs"]:
        import spans
        import tmsvlab.tomography as tomography

        # The fig_s3 gate needs the log-likelihood trace, which no output file
        # holds; this one wrapper per fit is the only hook in untraced runs.
        loglik_traces = []
        ml_reconstruct = tomography.ml_reconstruct

        def capture(*args, **kwargs):
            fit = ml_reconstruct(*args, **kwargs)
            loglik_traces.append(list(fit.loglik_trace))
            return fit

        spans.rebind(ml_reconstruct, capture)
        tracer = None
        if spec["trace"]:
            tracer = spans.Tracer()
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        exit_codes = [cli.main(list(argv)) for argv in spec["argvs"]]
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["exit_codes"] = exit_codes
        result["loglik_traces"] = loglik_traces
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
