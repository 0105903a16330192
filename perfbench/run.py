"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Operations go in-process through the ``rupturekit`` click commands, one at
a time (a closed loop with one client, no threads).  The run repeats passes
over the workload's operation list until ``--seconds`` is used up.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
the traced ones.  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# the calibration kernel's time at the reference host speed: timings are
# reported as seconds at that speed (see typical_pass)
KERNEL_REF_S = 0.0125


def use_checkout_source() -> None:
    """Import rupturekit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rupturekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no rupturekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rupturekit

    if Path(rupturekit.__file__).resolve().parent != SRC / "rupturekit":
        raise SystemExit(f"error: rupturekit imported from {rupturekit.__file__}")


# One capture buffer for the whole run: click caches a wrapper per stdout
# object, so a fresh buffer per operation would keep every output alive and
# inflate peak_rss_mb with each pass.
_STDOUT = io.StringIO()
_STDERR = io.StringIO()


def invoke(argv: list[str]) -> tuple[int, str]:
    """One ``rupturekit`` command line, in-process; (exit code, stdout)."""
    from rupturekit import cli

    for buf in (_STDOUT, _STDERR):
        buf.seek(0)
        buf.truncate()
    code = 0
    with contextlib.redirect_stdout(_STDOUT), contextlib.redirect_stderr(_STDERR):
        try:
            cli.main.main(args=argv, prog_name="rupturekit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, _STDOUT.getvalue()


def calibration_kernel() -> int:
    """Fixed pure-Python work, independent of rupturekit, that mixes what
    the solvers spend their time on: integer bit operations, small tuples
    and dict updates, string formatting."""
    acc = 0
    counts: dict = {}
    parts = []
    for i in range(20000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + (m >> 7 & m).bit_count()
        key = (i & 127, m & 15)
        counts[key] = counts.get(key, 0) + 1
        if i & 7 == 0:
            parts.append(f"{key[0]} {acc}")
    return acc + len(counts) + len("".join(parts))


def _time_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def run_pass(wl, tracer=None, failures=None) -> dict:
    """One pass over the workload's operations.

    Returns per-operation times (the command only, checks excluded), the
    calibration kernel's time before each operation and after the last,
    and the outputs.  An operation fails on an exception, a non-zero exit
    or a check mismatch; failures are appended to ``failures``.
    """
    import workloads

    times, outputs, failed = [], [], 0
    kernel = [_time_kernel()]
    for idx, op in enumerate(wl.ops):
        start = time.perf_counter()
        try:
            if tracer is None:
                code, stdout = invoke(op.argv)
            else:
                code, stdout = tracer.run_op(idx, lambda: invoke(op.argv))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            code, stdout = -1, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        kernel.append(_time_kernel())
        outputs.append(stdout)
        try:
            if code != 0:
                raise workloads.Mismatch(f"exit code {code}")
            op.check(stdout)
            workloads.check_against_refs(wl, op, stdout)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            failed += 1
            if failures is not None:
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return {"wall_s": sum(times), "op_times": times, "kernel_times": kernel,
            "outputs": outputs, "failed": failed}


def measure_setup(workload: str, seed: int, scale: str, workdir: Path) -> list[float]:
    """Time fresh interpreters from start to ready: import rupturekit,
    generate, select and write the workload's instances.  Each time is
    scaled to the reference host speed like the operations' times (see
    ``typical_pass``)."""
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path.insert(0, {str(HERE)!r}); import run; run.use_checkout_source(); "
        "import workloads; "
        f"workloads.build({workload!r}, {seed}, {scale!r}, Path(sys.argv[1]))"
    )
    times = []
    kernel = _time_kernel()
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup{k}"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(target)], check=True,
                       timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        elapsed = time.perf_counter() - start
        shutil.rmtree(target, ignore_errors=True)
        after = _time_kernel()
        times.append(KERNEL_REF_S * elapsed * 2 / (kernel + after))
        kernel = after
    return times


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _median_spread(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def typical_pass(passes: list[dict]) -> tuple[float, float]:
    """(wall_s, op_p50_s) of a pass at the reference host speed.

    Shared hosts change speed by up to half again, in spells that last
    from seconds to minutes.  Each operation's time is therefore divided
    by the mean time of the calibration kernel run just before and just
    after it, which the same spell slows alike; the median of that ratio
    over the passes, times ``KERNEL_REF_S``, is the operation's time.
    wall_s sums these times and op_p50_s is their median."""
    per_op = []
    for idx in range(len(passes[0]["op_times"])):
        ratios = [p["op_times"][idx] * 2
                  / (p["kernel_times"][idx] + p["kernel_times"][idx + 1])
                  for p in passes]
        per_op.append(KERNEL_REF_S * statistics.median(ratios))
    return sum(per_op), statistics.median(per_op)


def measure(wl, seconds: float, trace: bool) -> dict:
    """Repeat passes until ``seconds`` are used; with ``trace`` alternate
    untraced and traced passes."""
    from tracing import Tracer, layer_metrics

    failures: list[str] = []
    plain, traced, layers, spans = [], [], [], []
    attempted = 0
    # warm-up: lazy imports and first-call costs stay out of the timings
    invoke(wl.ops[0].argv)
    start = time.perf_counter()
    durations = []
    while True:
        pass_start = time.perf_counter()
        want_trace = trace and len(traced) < len(plain)
        if want_trace:
            tracer = Tracer()
            tracer.install()
            try:
                p = run_pass(wl, tracer, failures)
            finally:
                tracer.uninstall()
            traced.append(p)
            layers.append(layer_metrics(tracer.spans))
            spans.append([sp.to_dict() for sp in tracer.spans])
        else:
            p = run_pass(wl, None, failures)
            plain.append(p)
        # outputs of earlier passes must not count toward peak_rss_mb
        del p["outputs"]
        attempted += len(wl.ops)
        durations.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations)
        enough = not trace or len(traced) == len(plain)
        if enough and elapsed + typical > seconds:
            break
    return {"plain": plain, "traced": traced, "layers": layers, "spans": spans,
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full",
                    help="'full' (the benchmark) or 'smoke' (smallest, for tests)")
    ap.add_argument("--record", default=None,
                    help="append the stamped result as one JSON line to this file")
    args = ap.parse_args(argv)

    use_checkout_source()
    import workloads
    from tracing import LAYER_METRICS

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = measure_setup(args.workload, args.seed, args.scale, workdir)
        wl = workloads.build(args.workload, args.seed, args.scale, workdir / "inputs")
        m = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = m["plain"]
    failed = sum(p["failed"] for p in plain + m["traced"])
    wall_s, op_p50_s = typical_pass(plain)
    detail = {
        "wall_s": wall_s,
        "op_p50_s": op_p50_s,
        "pass_wall_s": _median_spread([p["wall_s"] for p in plain]),
        "setup_s": _median_spread(setup_times),
        "ops_per_pass": len(wl.ops),
        "ops_failed_frac": failed / m["attempted"],
    }
    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = typical_pass(m["traced"])[0] - wall_s
            else:
                value = statistics.median_low(lay[name] for lay in m["layers"])
            metrics[name] = {"value": value, "unit": unit}
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(m["spans"]))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": op_p50_s, "unit": "s"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": m["attempted"],
              "failed": failed, "metrics": metrics}
    for line in m["failures"][:20]:
        print(f"# failed: {line}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
              "time": time.time(), "stamp": stamp(), "detail": detail,
              "result": result}
    print("# " + json.dumps({k: record[k] for k in ("stamp", "detail")}))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
