"""scesep benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; scesep is imported from ``src/``.
Workloads: ``train``, ``infer-cluster``, ``infer-mi`` and ``eval`` (see
``perfbench/README.md``). With ``--trace 0`` the run is untraced and reports
the end-to-end metrics; with ``--trace 1`` it wraps scesep's public functions
in spans and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# Pin BLAS to one thread before numpy is imported; the env block reads the
# value back from the loaded library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("train", "infer-cluster", "infer-mi", "eval")
REF_SHARE = 0.15  # reference kernel time per op, as a share of the op's time
SETUP_GAUGE_S = 0.3  # least reference kernel time before and after each set-up


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.split()[-1]})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    if not git.is_dir():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def env_block():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


class Measurement:
    """Timed ops of a run, with the reference kernel's times between them."""

    def __init__(self):
        self.samples = []  # (op kind, wall seconds, clips)
        self.kernel = []  # reference kernel times taken between the ops
        self.ops = {}  # op id -> op kind, for ops that passed their checks
        self.attempted = 0
        self.passes = 0
        self.failures = []

    def times(self, kind):
        return [t for k, t, _ in self.samples if k == kind]

    def wall_s(self):
        return sum(t for _, t, _ in self.samples)

    def clips(self):
        return sum(c for _, _, c in self.samples)

    def ref_s(self, ref):
        """Time of all ops in reference seconds, scaled by the reference
        kernel's mean time over the whole run."""
        return self.wall_s() * ref.scale(self.kernel)


def run_pass(wl, m, tracer=None, ref=None, p=None):
    """Run the ops of pass ``p`` (default: the next pass of ``m``) into
    ``m``. A failed check is printed and counted, never raised. With
    ``ref``, the reference kernel runs after each op, for REF_SHARE of the
    op's time and at least once."""
    for op in wl.pass_ops(m.passes if p is None else p):
        op_id = m.attempted
        m.attempted += 1
        if tracer:
            tracer.op = op_id
        try:
            t0 = time.perf_counter()
            result = op.run()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            if ref:
                m.kernel += ref.gauge(REF_SHARE * dt)
            op.check(result)
        except Exception as e:  # a failed op is counted, not fatal
            if tracer:
                tracer.op = None
            m.failures.append(f"op {op_id} ({op.kind}): {type(e).__name__}: {e}")
            print(f"FAILED {m.failures[-1]}", file=sys.stderr)
            continue
        m.samples.append((op.kind, dt, op.clips))
        m.ops[op_id] = op.kind
    m.passes += 1


def measure(wl, seconds, ref):
    """Closed loop over whole passes until ``seconds`` have elapsed, at
    least one pass."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while m.passes < 1 or time.perf_counter() < deadline:
        run_pass(wl, m, ref=ref)
    return m


def tail(times_s):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when that percentile would not be above the
    median (fewer than 21 samples)."""
    n = len(times_s)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(times_s)[n - 11]


def report_quality(wl, exact, attempted, failed):
    """Print the output-quality guards and the values that must repeat bit
    for bit under one seed. They vary with the inputs, so they are reported
    here, not gated as end-to-end metrics."""
    print(f"failed_frac = {failed / attempted!r} ratio ({failed}/{attempted})")
    for name, (value, unit) in wl.quality().items():
        print(f"{name} = {value!r} {unit}")
        exact[name] = value
    print(f"repeat check: {json.dumps(exact, sort_keys=True)}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def report_ops(m):
    """Print each op kind's wall-clock latency: median and tail over every
    op of the run."""
    for kind in sorted({k for k, _, _ in m.samples}):
        every = m.times(kind)
        t = tail(every)
        tail_text = f"p{t[0]:.1f} = {1e3 * t[1]:.3f} ms" if t else "n/a (fewer than 21 samples)"
        print(f"{kind}_ms: n = {len(every)}, p50 = {1e3 * statistics.median(every):.3f} ms, "
              f"tail {tail_text}")


def run_untraced(name, plan, seed, seconds, workdir):
    import reference
    import workloads

    kernels, kernel_for = plan["reference_kernels"], plan["reference_kernel_for"]
    ref = reference.Reference(kernel_for["setup"], kernels[kernel_for["setup"]])
    # The kernel runs before the first set-up and after each one; a set-up
    # is scaled by the kernel runs on either side of it.
    setup_s, setup_ref_s = [], []
    gauges = [ref.gauge(SETUP_GAUGE_S)]
    for r in range(plan["setup_repeats"][name]):
        wl = workloads.make(name, plan)
        d = workdir / f"setup{r}"
        d.mkdir()
        t0 = time.perf_counter()
        wl.setup(d, seed)
        dt = time.perf_counter() - t0
        gauges.append(ref.gauge(max(REF_SHARE * dt, SETUP_GAUGE_S)))
        setup_s.append(dt)
        setup_ref_s.append(dt * ref.scale(gauges[-2] + gauges[-1]))
    ref = reference.Reference(kernel_for[name], kernels[kernel_for[name]])
    m = measure(wl, seconds, ref)
    print(f"setup wall s: {[round(s, 4) for s in setup_s]}; "
          f"in reference s: {[round(s, 4) for s in setup_ref_s]}")
    print(f"reference kernel {ref.kind}: nominal {ref.nominal_s * 1e3:.3f} ms; in this run "
          f"mean {statistics.fmean(m.kernel) * 1e3:.3f} ms over {len(m.kernel)} runs")
    print(f"passes: {m.passes}, mean pass {m.wall_s() / m.passes:.4f} wall s = "
          f"{m.ref_s(ref) / m.passes:.4f} reference s; {m.clips() / m.wall_s():.4f} clips per wall s")
    report_ops(m)
    report_quality(wl, {}, m.attempted, len(m.failures))
    metrics = {
        "setup_s": _metric(statistics.median(setup_ref_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_clips_per_s": _metric(m.clips() / m.ref_s(ref), "clips/s"),
    }
    return metrics, m.attempted, len(m.failures)


def run_traced(name, plan, seed, seconds, workdir):
    import tracer as tr
    import workloads

    wl = workloads.make(name, plan)
    tracer = tr.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        wl.setup(workdir, seed)
    finally:
        tracer.op = None
        tracer.uninstall()
    # One untimed warm-up pass, then untraced and traced passes alternate,
    # so warm-up and drift in machine speed hit both sides alike. Every pass
    # runs the inputs of pass 0, so the counts in the repeat check do not
    # depend on how many passes fit in the run.
    warmup, plain, traced = Measurement(), Measurement(), Measurement()
    run_pass(wl, warmup, p=0)
    deadline = time.perf_counter() + seconds
    while traced.passes < 1 or time.perf_counter() < deadline:
        run_pass(wl, plain, p=0)
        tracer.install()
        try:
            run_pass(wl, traced, tracer, p=0)
        finally:
            tracer.uninstall()

    spans = tracer.spans
    checks = []
    _, violations = tr.self_times(spans)
    if violations:
        checks.append(f"{violations} spans whose children outlast them")
    for op_id, counts in tr.calls_per_op(spans, traced.ops).items():
        kind = traced.ops[op_id]
        want = {k: v for k, v in wl.expected_calls(kind).items() if v}
        if dict(counts) != want:
            checks.append(f"op {op_id} ({kind}) span counts {dict(counts)} != expected {want}")
    for c in checks:
        print(f"FAILED {c}", file=sys.stderr)
    failed = len(warmup.failures + plain.failures + traced.failures + checks)

    metrics = tr.layer_metrics(spans, traced.ops, "setup")
    plain_s, traced_s = plain.wall_s(), traced.wall_s()
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "ratio")
    metrics["trace.spans_per_op"] = _metric(
        sum(1 for s in spans if s[tr.OP] in traced.ops) / len(traced.ops), "count")
    print(f"tracing overhead (same passes): untraced {plain_s:.4f} s, traced {traced_s:.4f} s, "
          f"difference {traced_s - plain_s:+.4f} s")
    report_ops(traced)
    exact = {k: metrics[k]["value"] for k in plan["exact_repeat_metrics"]}
    attempted = warmup.attempted + plain.attempted + traced.attempted
    report_quality(wl, exact, attempted, failed)
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "scesep" / "__init__.py").is_file():
        print(f"error: no scesep sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # workloads.py and tracer.py import scesep, so the run functions import
    # them only after this.
    sys.path[:0] = [str(src), str(HERE)]
    plan = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))

    print("env: " + json.dumps(env_block(), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed = run(args.workload, plan, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    for key, m in metrics.items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
