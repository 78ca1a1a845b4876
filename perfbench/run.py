"""agecomp benchmark: closed-loop passes over one workload, from a checkout root.

    python3 perfbench/run.py [--workload agincourt_cli|svd_scale|batch_project|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One caller runs complete passes back to back in this single-threaded
interpreter until --seconds have passed (finishing the current round of
inputs), checking every pass against numpy-only oracles after its timer
stops.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics.  The last
line of standard output is one JSON object; details, the environment
record and (traced) the spans go to .perfbench_out/ in the checkout.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("agincourt_cli", "svd_scale", "batch_project")
SETUP_LAUNCHES = 9
TAIL_BEYOND = 10  # passes that must lie beyond the reported tail percentile
CHILD_TIMEOUT_S = 170

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "pass_ref_p50": "ref",
    "peak_rss_mb": "MB",
}
REF_REPEATS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_checkout() -> None:
    needed = (ROOT / "src" / "agecomp" / "__init__.py", ROOT / "data" / "agincourt_mx_female.csv")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        _fail(f"run from an agecomp checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    import tracing

    out = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for module in (*tracing.MODULES, "bench"):
        out += [(f"{module}.self_s", "s"), (f"{module}.share", "frac")]
    out += [("cluster.grid_ok_ratio", "frac"), ("linalg.svd.cells", "count"),
            ("io.bytes_read", "B"), ("io.bytes_written", "B"),
            ("trace.pass_s_mean", "s"), ("trace.overhead_frac", "frac")]
    return out


def tail(times):
    """(value, percentile, passes beyond): the highest order statistic with
    TAIL_BEYOND passes above it, or the fastest pass if there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * i / (n - 1) if n > 1 else 0.0
    return ordered[i], pct, n - 1 - i


def _reference_work() -> float:
    total = 0.0
    for i in range(50_000):
        total += i * i
    a = np.arange(38.0)
    for _ in range(1_000):
        a = a * 0.5 + 1.0
        total += float(a @ a)
    return total


def reference_s() -> float:
    """Best of REF_REPEATS timings of a fixed mix of interpreter loops and
    small numpy calls, the same kind of work agecomp's passes do.

    Pass times divided by the reference timed right around them stay put when
    the shared host runs this process slower or faster for a while.
    """
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_setup(workload: str, seed: int) -> None:
    """Child mode: build the workload's inputs, report readiness, clean up."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=OUT))
    try:
        workloads.WORKLOADS[workload](ROOT, workdir, seed)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from interpreter launch to inputs ready, for a fresh child."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        _fail(f"set-up probe for {workload} exited {code}")
    return elapsed


def environment(workload_obj, seed: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "agecomp").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": dict(BLAS_THREADS),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "inputs": workload_obj.describe(),
    }


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _timed_pass(wl, index: int, tally, tracer):
    """Run and check one pass; its wall time, or None if the pass raised.

    A pass or check that raises counts as a failed operation rather than
    ending the run, so one defect shows as ops_failed_frac > 0.
    """
    gc.collect()
    try:
        t0 = time.perf_counter()
        result = tracer.run_pass(wl.run, index) if tracer else wl.run(index)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - reported through the tally
        tally.check(False, f"pass {index} raised {exc!r}")
        return None
    try:
        wl.check(index, result, tally)
    except Exception as exc:  # noqa: BLE001 - reported through the tally
        tally.check(False, f"check of pass {index} raised {exc!r}")
    return elapsed


def _per_input_p50(per_input) -> float:
    """Median per input of the round, averaged over the inputs.

    svd_scale's shapes differ tenfold in cost, so a statistic over the mixed
    passes would measure the mix rather than the program.
    """
    return statistics.fmean(statistics.median(g) for g in per_input)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    # Set-up launches are spread over the run, between passes, so their median
    # samples the same stretches of host speed as the passes do.
    setup_times = [] if trace else [measure_setup(name, seed)]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](ROOT, workdir, seed)
        tally = workloads.Tally()
        tracer = tracing.Tracer() if trace else None
        _timed_pass(wl, 0, tally, None)  # warm-up pass, untimed

        by_input = [[] for _ in range(wl.round_size)]
        # pass time / reference time, per input, for untraced and traced passes
        ratios = {traced: [[] for _ in range(wl.round_size)] for traced in (False, True)}
        times, refs = [], []
        ref_before = reference_s()
        index = 0
        min_rounds = 2 if trace else 1
        start = time.perf_counter()
        while index < min_rounds * wl.round_size or time.perf_counter() - start < seconds:
            round_traced = trace and (index // wl.round_size) % 2 == 1
            for _ in range(wl.round_size):
                elapsed = _timed_pass(wl, index, tally, tracer if round_traced else None)
                ref_after = reference_s()
                if elapsed is not None:
                    times.append(elapsed)
                    refs.append(ref_after)
                    by_input[index % wl.round_size].append(elapsed)
                    ratio = 2.0 * elapsed / (ref_before + ref_after)
                    ratios[round_traced][index % wl.round_size].append(ratio)
                ref_before = ref_after
                index += 1
                due = len(setup_times) * seconds / SETUP_LAUNCHES
                if not trace and len(setup_times) < SETUP_LAUNCHES and time.perf_counter() - start >= due:
                    t0 = time.perf_counter()
                    setup_times.append(measure_setup(name, seed))
                    start += time.perf_counter() - t0  # launches do not eat into the passes' time
        while not trace and len(setup_times) < SETUP_LAUNCHES:
            setup_times.append(measure_setup(name, seed))
        if not all(ratios[False]) or (trace and not all(ratios[True])):
            _fail(f"some input of {name} never completed a pass: {tally.messages[:3]}")
        round_schedules = sum(wl.schedules(i) for i in range(wl.round_size))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment(wl, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {"workload": name, "trace": int(trace), "passes": len(times),
              "pass_times_s": times, "setup_times_s": setup_times,
              "checks": {"attempted": tally.attempted, "failed": tally.failed,
                         "messages": tally.messages}, "env": env}
    if trace:
        traced_passes = sum(len(g) for g in ratios[True])
        layers = tracing.summarize(tracer.spans, tracer.counts, traced_passes)
        layers["trace.overhead_frac"] = _per_input_p50(ratios[True]) / _per_input_p50(ratios[False]) - 1.0
        metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer_names()}
        detail["traced_passes"] = traced_passes
        tracing.write_spans(OUT / f"{name}-seed{seed}-spans.jsonl", tracer.spans)
    else:
        p50 = _per_input_p50(by_input)
        value, pct, beyond = tail(times)
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_ref_p50": _per_input_p50(ratios[False]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        detail["reported"] = {
            "pass_s_p50": [p50, "s", "median pass, per input, averaged over the round"],
            "pass_s_best": [statistics.fmean(min(g) for g in by_input), "s",
                            "fastest pass, per input, averaged over the round"],
            "pass_s_tail": [value, "s", f"p{pct:.1f}, {beyond} of {len(times)} passes beyond"],
            "schedules_per_s": [round_schedules / (p50 * wl.round_size), "1/s",
                                f"{round_schedules} schedules a round at the median pass times"],
            "ref_s_p50": [statistics.median(refs), "s", "reference loop, median"],
        }
        detail["ratios"] = ratios[False]
    detail["metrics"] = metrics
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, default=float), encoding="utf-8")
    return detail


def report(detail: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    checks = detail["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    print(f"workload {detail['workload']}: {detail['passes']} passes, "
          f"trace {'on' if detail['trace'] else 'off'}")
    for name, m in detail["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(detail['setup_times_s'])} launches)"
        elif name == "pass_ref_p50":
            note = "  (median of pass time / reference-loop time, per input, averaged)"
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}{note}")
    for name, (value, unit, note) in detail.get("reported", {}).items():
        print(f"  {name:<34} {value:.6g} {unit}  ({note}; reported, not bounded)")
    if detail["trace"]:
        import tracing

        m = detail["metrics"]
        accounted = sum(m[f"{mod}.self_s"]["value"] for mod in (*tracing.MODULES, "bench"))
        print(f"  module self times + bench.self_s = {accounted:.6g} s of a "
              f"{m['trace.pass_s_mean']['value']:.6g} s traced pass; unattributed share "
              f"{m['bench.share']['value']:.4g}")
    print(f"  {'ops_failed_frac':<34} {failed / max(attempted, 1):.6g} frac"
          f"  ({failed} of {attempted} checked operations failed)")
    for message in checks["messages"]:
        print(f"  FAILED {message}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": detail["metrics"]}


def run_all(args) -> dict:
    """Every workload in its own fresh interpreter; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 30)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _require_checkout()
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
