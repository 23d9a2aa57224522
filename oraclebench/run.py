"""Oracle benchmark: time to a certified verdict on one workload, both blessed configs.

    python3 oraclebench/run.py --workload coresolution-d5 --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout of the repository; the program is the
tlschur source under src/, put on PYTHONPATH of each sample.  Every sample is
a fresh interpreter running one workload for one config (see worker.py), one
at a time, with BLAS pinned to one thread (PINNED_THREADS).  The seed only
decides which config runs first: the oracle's inputs are fixed by the
workload's degree and the config.

--trace 0 gives each config an equal share of --seconds: it runs the config
with the least time so far while that config's next sample still fits, and
each config at least once.  It reports the end-to-end metrics: medians over
the samples.  --trace 1 runs each config once untraced and once traced and
reports the per-layer metrics of BENCHMARK.json, summed over both configs.
Earlier stdout lines carry a report (environment, backend, per-sample
figures, quartiles, verdicts, call tree); the last line is the result
object.  A failed or raised verdict counts in "failed" and its sample is
left out of every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, UNITS  # noqa: E402

CONFIGS = ("gf2-u1", "gf5-u2")
DEGREE = {"verify-d4": 4, "centralizer-d5": 5, "coresolution-d5": 5}
BUDGET_S = 170  # a run must end within 180 s
SETUP_PROBES = 5
# One BLAS thread per sample.  With OpenBLAS free to use both cores of a
# shared 2-core machine, single gf2 coresolution-d5 samples spread from 10.5
# to 14.8 s (the second core is sometimes taken); pinned, 13.0 to 13.4 s.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args: list[str], deadline: float) -> dict | None:
    """One worker process; None when it crashed, timed out or printed no result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(PINNED_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"oraclebench: worker {args} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"oraclebench: worker {args} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print(f"oraclebench: worker {args} printed no result", file=sys.stderr)
        return None


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    top = int(100 * (1 - 10 / len(values))) if len(values) >= 20 else None
    out["highest_percentile"] = None if top is None else {"p": top, "value": statistics.quantiles(values, n=100)[top - 1]}
    return out


def end_to_end(samples: dict, setup: list[float]) -> tuple[dict, dict]:
    wall = {cfg: summary([r["wall_s"] for r in rs]) for cfg, rs in samples.items()}
    cpu = {cfg: summary([r["cpu_s"] for r in rs])["median"] for cfg, rs in samples.items()}
    rss = {cfg: summary([r["peak_rss_mb"] for r in rs])["median"] for cfg, rs in samples.items()}
    complete = all(samples.values())
    metrics = {f"{cfg.split('-')[0]}_verdict_s": (wall[cfg]["median"], "s") for cfg in CONFIGS}
    metrics["cpu_s"] = (sum(cpu.values()) if complete else None, "s")
    metrics["peak_rss_mb"] = (max(rss.values()) if complete else None, "MB")
    metrics["setup_s"] = (statistics.median(setup) if setup else None, "s")
    return metrics, {"wall_s": wall, "setup_s": summary(setup)}


def per_layer(traced: dict, plain: dict) -> dict:
    metrics = {}
    for span, fields in LAYER_METRICS:
        for field in fields:
            total = sum(r["spans"].get(span, {}).get(field, 0) for r in traced.values())
            metrics[f"{span}.{field}"] = (total, UNITS[field])
    complete = len(traced) == len(plain) == len(CONFIGS)
    overhead = sum(r["wall_s"] for r in traced.values()) - sum(r["wall_s"] for r in plain.values())
    metrics["trace_overhead_s"] = (overhead if complete else None, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEGREE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tlschur" / "__init__.py").is_file():
        print(f"oraclebench: no tlschur sources under {ROOT / 'src'}; run it inside a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    rng = random.Random(args.seed)
    d = DEGREE[args.workload]
    run_child(["setup", "-", "0", "0"], deadline)  # untimed: writes bytecode, warms the file cache
    setup = []
    attempted = failed = 0
    runs = []

    def sample(cfg: str, trace: bool) -> dict | None:
        nonlocal attempted, failed
        r = run_child([args.workload, cfg, str(d), str(int(trace))], deadline)
        if r is None:
            attempted, failed = attempted + 1, failed + 1
            runs.append({"config": cfg, "trace": trace, "crashed": True})
            return None
        attempted, failed = attempted + r["attempted"], failed + r["failed"]
        setup.append(r["import_s"])
        runs.append({k: r[k] for k in ("config", "trace", "wall_s", "cpu_s", "peak_rss_mb", "import_s", "failed")})
        runs[-1]["failed_verdicts"] = [v for v in r["verdicts"] if not v[3]]
        return r if r["failed"] == 0 else None

    report = {"workload": args.workload, "d": d, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    kept: list[dict] = []
    if args.trace:
        plain, traced = {}, {}
        for cfg in rng.sample(CONFIGS, len(CONFIGS)):
            for trace, into in ((False, plain), (True, traced)):
                r = sample(cfg, trace)
                if r is not None:
                    into[cfg] = r
                    kept.append(r)
        metrics = per_layer(traced, plain)
        report["tree"] = {cfg: r["tree"] for cfg, r in traced.items()}
    else:
        probes = (run_child(["setup", "-", "0", "0"], deadline) for _ in range(SETUP_PROBES))
        setup += [r["import_s"] for r in probes if r]
        samples = {cfg: [] for cfg in CONFIGS}
        durations = {cfg: [] for cfg in CONFIGS}
        order = rng.sample(CONFIGS, len(CONFIGS))
        t0 = time.monotonic()
        while True:
            # Equal time to each config: the short gf2 samples get more
            # repeats, so the host's sample-to-sample jitter averages out.
            cfg = min(order, key=lambda c: sum(durations[c]))
            if durations[cfg]:
                expected = statistics.median(durations[cfg])
                now = time.monotonic()
                if now - t0 + expected > args.seconds or now + 1.5 * expected > deadline:
                    break
            p0 = time.monotonic()
            r = sample(cfg, False)
            durations[cfg].append(time.monotonic() - p0)
            if r is not None:
                samples[cfg].append(r)
                kept.append(r)
        metrics, report["summary"] = end_to_end(samples, setup)

    envs = {json.dumps(r["env"], sort_keys=True) for r in kept}
    report["env"] = [json.loads(e) for e in sorted(envs)]
    report["verdicts"] = {f"{r['config']}{' traced' if r['trace'] else ''}": r["verdicts"] for r in kept}
    report["runs"] = runs
    print(json.dumps({"report": report}))

    correct = failed == 0 and all(value is not None for value, _ in metrics.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
