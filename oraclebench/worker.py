"""One timed sample in a fresh interpreter: import tlschur, run one workload, report.

    python3 oraclebench/worker.py WORKLOAD CONFIG D TRACE

WORKLOAD is a key of workloads.RUN, or "setup" to time the import alone.
TRACE 1 wraps the layers with tracer.Tracer before the first oracle call.
Prints one JSON object.  A fresh interpreter per sample is what keeps the
samples honest: schur_algebra memoises algebras in a module-level cache and
relative_domdim stores End(Q) and its radical on the tensor module, so a
second run in the same process would read falsely fast.
"""

import time

_t0 = time.perf_counter()
import tlschur  # noqa: E402  (the import is what setup_s times)

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def environment() -> dict:
    """What the numbers were measured on; the backend is numpy unless numba imported."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": tlschur._kernels.active_backend(),
        "numba": tlschur._kernels.HAS_NUMBA,
        "tlschur": tlschur.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def main(argv) -> int:
    workload, config, d, trace = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    out = {"workload": workload, "config": config, "d": d, "trace": trace, "import_s": IMPORT_S}
    if workload == "setup":
        print(json.dumps(out))
        return 0

    import workloads

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        verdicts = workloads.RUN[workload](d, config)
    except Exception:  # a raised verdict is a failed verdict, never a timed success
        traceback.print_exc()
        verdicts = [("raised", "verdict", "exception", False)]
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = time.process_time() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["verdicts"] = [list(v) for v in verdicts]
    out["attempted"] = len(verdicts)
    out["failed"] = sum(1 for v in verdicts if not v[3])
    out["env"] = environment()
    if tracer is not None:
        out["spans"] = tracer.by_name()
        out["tree"] = tracer.tree()
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
