"""qcusp batch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
    python3 bench/run.py --smoke [--out DIR]
    python3 bench/run.py compare RESULTS_A RESULTS_B

A run is a closed loop in one process and one thread: the next job starts
when the previous one ends. It times whole rounds of the workload's job
schedule for at least S seconds of job time and checks every output
against an independent oracle outside the timed region. Set-up time is
measured in fresh interpreters that import qcusp, generate the inputs and
run one warm-up job per job kind; the run reports the median of samples
taken before and between rounds. A replay of the first rounds under the
tracer gives the per-layer metrics (all of them with --trace 1) and the
tracing overhead. The domain-edge probe runs last.

The shared machine this was built on drifts: for minutes at a time it runs
everything up to 1.7 times slower. So a fixed pure-Python reference kernel
(no qcusp) is timed before every round, and times are reported at reference
speed: a job's time scaled by REF_S over the kernel's time before its
round, the set-up time by the median of those factors. A job's time is the
median of its repeats on each input, averaged over its inputs; job_s.p50
and job_s.p90 are quantiles of those times over the jobs of a round, and
jobs_per_s is a round's job count over their sum. The result file also
holds the same metrics from the unscaled wall times, under end_to_end_wall.

Every run writes a result file with its provenance under DIR (default
.bench_out); with --trace 1 it also writes the spans. The last line of
standard output is one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
MIN_JOBS = 100  # at least ten samples beyond p90
SETUP_SAMPLES = 5
REF_S = 0.005  # about the reference kernel's time when the development machine ran undisturbed


def _reference_kernel() -> int:
    table, acc = {}, 0
    for i in range(1, 2000):
        key = Fraction(i, 2 ** (i % 7))
        table[key] = (i * 7919) % 10007
        acc += table[key] * i
    return acc


def reference_s() -> float:
    """Median of three timings of a fixed kernel of Fraction, int and dict
    operations, the operations qcusp spends its time on."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def provenance(workload: str, seed: int, sizes: list[str], why: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcusp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # never report an enclosing repository
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha, "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "workload": workload, "seed": seed,
        "job_sizes": sizes, "why": why, "load": "closed loop, 1 process, 1 thread",
    }


def setup(name: str, seed: int, smoke: bool):
    """Generate the inputs and run one untimed warm-up job per job kind."""
    import workloads

    w = workloads.build(name, seed, smoke)
    for job in w.warmups():
        job.run()
    return w


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter until it could run its
    first timed job."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv + (["--smoke"] if smoke else []), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=170)
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {err.strip()[-400:]}")
    return elapsed


def _run_job(job) -> tuple[float, object, str | None]:
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    import probe
    import tracing
    import workloads

    setup_s = [measure_setup(name, seed, smoke)]
    w = setup(name, seed, smoke)
    replay = workloads.POOL if trace else 1
    min_rounds = max(replay, workloads.POOL, math.ceil((10 if smoke else MIN_JOBS) / len(w.slots)))

    # untraced closed loop over whole rounds; times[r][i] is slot i in round r,
    # scales[r] converts round r to reference speed
    times: list[list[float]] = []
    scales: list[float] = []
    kept: list[object] = []  # outputs of the rounds the tracer replays
    failures: list[str] = []
    elapsed = 0.0
    while len(times) < min_rounds or elapsed < seconds:
        r = len(times)
        scales.append(REF_S / reference_s())
        times.append([])
        for slot, job in zip(w.slots, w.round(r)):
            dt, out, err = _run_job(job)
            err = err or job.check(out)
            if err:
                failures.append(f"{slot.kind} {slot.size} round {r}: {err}")
            times[-1].append(dt)
            if r < replay:
                kept.append(out)
        elapsed += sum(times[-1])
        if len(setup_s) < setup_samples and elapsed >= seconds * len(setup_s) / (setup_samples - 1):
            setup_s.append(measure_setup(name, seed, smoke))
    while len(setup_s) < setup_samples:
        setup_s.append(measure_setup(name, seed, smoke))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(times)

    # traced replay of the first rounds
    tracer = tracing.Tracer()
    traced: list[tuple[float, object]] = []
    job_ids = {slot.kind: tracer.name_id(f"job.{slot.kind}") for slot in w.slots}
    with tracer:
        for r in range(replay):
            for slot, job in zip(w.slots, w.round(r)):
                i = tracer.begin(job_ids[slot.kind])
                dt, out, err = _run_job(job)
                tracer.finish(i)
                traced.append((dt, out if err is None else err))
    for (dt, out), want in zip(traced, kept):
        if out != want:
            failures.append(f"traced replay output differs from the untraced run: {str(out)[:200]}")
    overhead = sum(dt for dt, _ in traced) / sum(map(sum, times[:replay]))
    per_layer, by_layer = tracing.layer_metrics(tracer, overhead)

    def end_to_end(scaled: bool) -> tuple[dict, list[float]]:
        pool = workloads.POOL
        factor = scales if scaled else [1.0] * rounds
        typical = [
            statistics.fmean(
                statistics.median(row[i] * f for row, f in zip(times[start::pool], factor[start::pool]))
                for start in range(pool))
            for i in range(len(w.slots))
        ]
        ordered = sorted(typical)
        return {
            "setup_s": statistics.median(setup_s) * (statistics.median(scales) if scaled else 1.0),
            "job_s.p50": _quantile(ordered, 0.5),
            "job_s.p90": _quantile(ordered, 0.9),
            "jobs_per_s": len(typical) / sum(typical),
            "peak_rss_mb": peak_rss_mb,
        }, typical

    metrics, typical = end_to_end(scaled=True)
    predicted = workloads.PREDICTED_LAYER[name]
    largest = max(by_layer, key=by_layer.get)
    others = max(v for layer, v in by_layer.items() if layer not in predicted)
    probe_result = probe.run(seed, smoke)
    attempted = rounds * len(w.slots) + len(traced)
    result = {
        "provenance": provenance(name, seed, w.sizes(), next(x["why"] for x in _spec()["workloads"] if x["name"] == name)),
        "run_seconds": seconds, "trace": int(trace), "rounds": rounds, "sample_count": rounds * len(w.slots),
        "attempted": attempted, "failed": len(failures), "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": metrics, "end_to_end_wall": end_to_end(scaled=False)[0], "reference_scale": scales,
        "setup_samples_s": setup_s, "tracing.overhead_ratio": overhead,
        "typical_job_s": [[size, t] for size, t in zip(w.sizes(), typical)],
        "round_s": [sum(row) for row in times],
        "per_layer": per_layer,
        "layer_self_s": by_layer,
        "largest_layer": largest, "predicted_layer": list(predicted), "prediction_met": sum(by_layer[layer] for layer in predicted) > others,
        "probe": probe_result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if trace:
        tracer.write_spans(out_dir / f"{stem}.spans.tsv")
    return result


def _spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def report(result: dict, trace: bool, spec: dict) -> dict:
    """Print the metrics with units and the checks; return the final line."""
    name = result["provenance"]["workload"]
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": result[kind][m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(f"workload {name}  seed {result['provenance']['seed']}  jobs {result['sample_count']} "
          f"in {result['rounds']} rounds  failed {result['failed']}/{result['attempted']}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<12} {result['end_to_end'][m['name']]:.6g} {m['unit']}")
    probe_result = result["probe"]
    print(f"  fail_ratio   {result['fail_ratio']:.6g} (timed jobs)  "
          f"probe fail_ratio {probe_result['fail_ratio']:.6g} ({probe_result['failed']}/{probe_result['attempted']} domain-edge jobs)")
    verdict = "met" if result["prediction_met"] else "NOT met"
    print(f"  largest self time: {result['largest_layer']}; prediction {'+'.join(result['predicted_layer'])} "
          f"above every other layer: {verdict}; tracing overhead x{result['tracing.overhead_ratio']:.3g}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def smoke(out_dir: Path) -> int:
    """All three workloads at tiny sizes, untraced and traced, then the
    comparison of the two result sets."""
    import compare

    spec = _spec()
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        for seed, trace, side in ((1, False, "a"), (2, True, "b")):
            result = run_workload(name, seed, 0.2, trace, out_dir / side, smoke=True, setup_samples=1)
            ok &= report(result, trace, spec)["correct"]
    ok &= compare.main([str(out_dir / "a"), str(out_dir / "b")]) == 0
    print(json.dumps({"correct": bool(ok)}))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if not (SRC / "qcusp" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: needs the qcusp sources under {SRC} and {SPEC.name} at the root of the checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".bench_out"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke and not args.setup_only:
        return smoke(args.out / "smoke")
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.setup_only:
        setup(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(report(result, bool(args.trace), _spec())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
