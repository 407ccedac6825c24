"""Benchmark of the `backflow` library and CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {survey,design,cli} --seed N \
        --seconds S --trace {0,1}

The benchmark imports `backflow` from `src/` of the checkout and drives its
public API from this one process in a closed loop: one client, the next
operation starts only after the previous one returns. Workloads and their
inputs are in workloads.py, the independent checks in checks.py.

--trace 0 measures the end-to-end metrics:

    ops_per_s     1/s       operations per second of time spent in backflow
                            calls (checking the answers is not timed)
    op_ms_p50     ms        median latency of one operation, per block of
                            whole passes over the inputs, averaged over blocks
    op_ms_p90     ms        90th-percentile latency, likewise (each block
                            holds at least 100 operations, so at least 10 lie
                            beyond it)
    success_rate  fraction  share of attempted operations that returned and
                            passed their check; error_rate = 1 - success_rate
    setup_s       s         import of numpy/scipy/backflow from the first
                            line of this script, plus the median of three
                            rounds of input generation and warm-up
    peak_rss_mb   MB        peak resident memory of the process

--trace 1 first runs untraced for half the time, then traces the same
operations (see tracing.py) and reports per-layer metrics per operation,
with the tracing overhead as traced minus untraced time per operation.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Tables for people go to
standard error. An operation that raises or fails its check counts as
failed; the run is `correct` when every failure is of a known-defect input
(see Op.defect). Each run also writes its result, the environment record
and, when traced, the spans to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread for every BLAS/OpenMP pool, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("survey", "design", "cli")
MIN_OPS = 100
SETUP_ROUNDS = 3
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_backflow():
    """Import the library from this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "backflow", "__init__.py")):
        raise SystemExit(f"error: no backflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import backflow

    if not os.path.abspath(backflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: backflow was imported from {backflow.__file__}, not {SRC}")
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def _read_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the library sources, which names the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "backflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "commit": _read_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _make_ops(workload: str, seed: int, workdir: str):
    import workloads

    if workload == "cli":
        return workloads.cli(seed, workdir)
    return getattr(workloads, workload)(seed)


def _warm_up(ops) -> None:
    """One operation of each input family, untimed and unchecked, so that
    lazy imports and first-call costs fall into set-up."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # a known defect may raise; the timed run counts it
                pass


class Runner:
    """The closed loop: time each call, then check its outcome untimed."""

    def __init__(self, ops):
        self.ops = ops
        self.verdicts: dict[int, tuple] = {}  # op index -> (outcome, fault)
        self.failures: dict[str, tuple[str, str | None]] = {}  # label -> (fault, defect)

    def _judge(self, index, op, outcome, error) -> str | None:
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        cached = self.verdicts.get(index)
        if op.memo and cached is not None and cached[0] == outcome:
            return cached[1]
        fault = op.check(outcome)
        if op.memo:
            self.verdicts[index] = (outcome, fault)
        return fault

    def run(self, seconds: float, block: int, count: int | None = None, tracer=None):
        """Run whole blocks of `block` operations until `seconds` of timed
        calls, or exactly `count` operations. Returns (latencies, failed,
        unexpected)."""
        gc.collect()
        latencies, failed, unexpected = [], 0, 0
        busy = 0.0
        i = 0
        while (busy < seconds or i % block or not i) if count is None else i < count:
            index = i % len(self.ops)
            op = self.ops[index]
            if tracer is not None:
                tracer.op_id = i
                tracer.active = True
            start = time.perf_counter()
            try:
                outcome, error = op.call(), None
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                outcome, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            latencies.append(elapsed)
            busy += elapsed
            fault = self._judge(index, op, outcome, error)
            if fault is not None:
                failed += 1
                unexpected += op.defect is None
                self.failures[op.label] = (fault, op.defect)
            i += 1
        return latencies, failed, unexpected


def _print_table(title, rows, note=None):
    print(title, file=sys.stderr)
    for name, value, unit in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}", file=sys.stderr)
    if note:
        print(f"  ({note})", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the result object printed as the last line.
    Needs _import_backflow() first.

    The run is made of blocks: the fewest whole passes over the workload's
    inputs that hold at least `min_ops` operations. Whole passes keep the
    input mix, and so the error rate, the same from run to run; the latency
    percentiles are taken per block and averaged over the blocks, which
    evens out the machine's speed drifting during the run."""
    import numpy as np

    import tracing
    import workloads  # noqa: F401 - its import belongs to set-up

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        import_s = time.perf_counter() - _T0
        rounds = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            ops = _make_ops(workload, seed, workdir)
            _warm_up(ops)
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)
        block = len(ops) * -(-min_ops // len(ops))

        if not trace:
            runner = Runner(ops)
            latencies, failed, unexpected = runner.run(seconds, block)
            attempted = len(latencies)
            p50, p90 = 1e3 * np.percentile(np.reshape(latencies, (-1, block)), [50, 90], axis=1).mean(axis=1)
            metrics = {
                "ops_per_s": attempted / sum(latencies),
                "op_ms_p50": float(p50),
                "op_ms_p90": float(p90),
                "success_rate": 1.0 - failed / attempted,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            _print_table(
                f"{workload}: end-to-end, seed {seed}, {attempted} ops in {attempted // block} blocks, "
                f"error_rate {failed / attempted:.4g}",
                [(name, metrics[name], units[name]) for name in units],
            )
        else:
            runner = Runner(ops)
            base, failed_a, unexpected_a = runner.run(seconds / 2, block)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                latencies, failed_b, unexpected_b = runner.run(0, block, count=len(base), tracer=tracer)
            finally:
                tracer.uninstall()
            attempted = len(base) + len(latencies)
            failed, unexpected = failed_a + failed_b, unexpected_a + unexpected_b
            overhead_ms = 1e3 * (sum(latencies) - sum(base)) / len(base)
            metrics = tracer.per_op(len(latencies), overhead_ms)
            units = dict(tracing.metric_names())
            tracer.write_spans(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"))
            _print_table(
                f"{workload}: per layer, per operation, seed {seed}, {len(latencies)} traced ops",
                [(name, metrics[name], units[name]) for name in units],
                "no layer queues work, so there are no wait metrics",
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, (fault, defect) in sorted(runner.failures.items()):
        print(f"  FAILED [{defect or 'UNEXPECTED'}] {label}: {fault}", file=sys.stderr)
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "failures": {label: {"fault": f, "defect": d} for label, (f, d) in runner.failures.items()},
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_backflow()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
