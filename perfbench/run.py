"""The repository benchmark: ``clean``/``detect`` end to end, plus a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload fd_clean --seed 1 --seconds 20 --trace 0

Each run makes its inputs from ``--seed``, times the workload's public
entry point (``repro.pipeline.Cleaner().clean`` or ``.detect``) in a closed
loop for ``--seconds``, checks every output outside the timed region, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics (see ``tracing.py``).  The lines before the JSON give
every end-to-end metric by name with its unit, the environment, the
resolved backends and the sha256 of each generated input file.

``run_s`` is the median wall time of one call.  On a shared host the
CPU speed drifts by tens of percent over tens of seconds, which moves wall
times between runs by more than any useful bound.  So every timed region
runs between passes of a fixed pure-Python reference workload (outside
the region), and the gated metrics divide by its time, cancelling drift
common to both: ``run_ref`` is the median call time in reference-loop
passes, and ``setup_s`` is the set-up time in seconds at the reference
speed (one pass in ``REF_PASS_S``).  The raw wall times are printed too.
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs (removed after each run) and written-out traces.
WORK = ROOT / ".perfbench_work"

#: Setting any of these changes which code path runs; the benchmark refuses.
PINNED_ENV = (
    "REPRO_KERNEL",
    "REPRO_STORAGE",
    "REPRO_ANALYSIS",
    "REPRO_PARALLEL_AUTO_ROWS",
    "REPRO_SPILL_DIR",
    "REPRO_BENCH_SCALE",
)

#: ``PYTHONHASHSEED`` every run executes under (the entry point re-executes
#: itself with it when the environment has another value).
HASH_SEED = "0"

#: The end-to-end metrics of BENCHMARK.json: never 0, steady between runs.
GATED = ("setup_s", "run_ref", "peak_rss_mb")

#: Times the input set-up is repeated in one run; ``setup_s`` takes the median.
SETUP_REPEATS = 5

#: The program modules the set-up imports (timed as part of ``setup_s``).
PROGRAM_MODULES = (
    "repro.pipeline",
    "repro.datagen.generator",
    "repro.datagen.cfd_catalog",
    "repro.io.sources",
    "repro.io.text_format",
)

#: Rows of the reference workload, in a fixed shuffled order: build new
#: tuples from them, sort them and index them in a dict (a few milliseconds).
#: Allocation, sorting and hashing follow the program's drift more closely
#: than an arithmetic loop does, whose data never leaves the L1 cache.
REF_ROWS = [(f"{(i * 7919) % 8009:05d}", i, "NY") for i in range(8000)]
#: Reference-loop passes before and after each timed region.
REF_PASSES = 3
#: Seconds of one pass at the reference speed (``setup_s`` is scaled to it).
REF_PASS_S = 0.005


def reference_loop() -> float:
    """Wall seconds of one pass of the fixed pure-Python reference workload."""
    start = time.perf_counter()
    rows = [(key, number + 1, state) for key, number, state in REF_ROWS]
    rows.sort()
    {row[0]: row for row in rows}
    return time.perf_counter() - start


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``(fn(), wall seconds, reference-loop seconds)``.

    The reference is the median of the loop passes run right before and
    right after ``fn``, outside the timed region.
    """
    passes = [reference_loop() for _ in range(REF_PASSES)]
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    passes += [reference_loop() for _ in range(REF_PASSES)]
    return result, seconds, statistics.median(passes)


def import_times() -> List[Tuple[float, float]]:
    """(wall, reference) seconds of fresh interpreters importing the program.

    Import is part of set-up (``setup_s``); a fresh process per repeat
    keeps this process's module cache out of the timing.  Only the
    program's modules are imported, none of the benchmark's.
    """
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import {', '.join(PROGRAM_MODULES)}"
    command = [sys.executable, "-c", code, str(SRC)]
    times = []
    for _ in range(SETUP_REPEATS):
        _, seconds, ref = timed(lambda: subprocess.run(command, check=True, timeout=120))
        times.append((seconds, ref))
    return times


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def wall_and_reference(times: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Median wall seconds, and median seconds at the reference speed, of ``timed`` results."""
    return (
        statistics.median(seconds for seconds, _ref in times),
        REF_PASS_S * statistics.median(seconds / ref for seconds, ref in times),
    )


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for percentile in (99, 95, 90, 75, 50):
        if len(values) * (100 - percentile) / 100 >= 10:
            return percentile, statistics.quantiles(values, n=100)[percentile - 1]
    return None


def pinned_status(workload: str, rows: int, seed: int, hashes: Dict[str, str]) -> str:
    """``match``, ``DRIFT`` or ``unpinned``: the inputs against ``pinned_inputs.json``."""
    pinned_path = HERE / "pinned_inputs.json"
    if not pinned_path.is_file():
        return "unpinned"
    table = json.loads(pinned_path.read_text()).get(workload, {})
    pinned = table.get("seeds", {}).get(str(seed))
    if pinned is None or table.get("rows") != rows:
        return "unpinned"
    return "match" if pinned == hashes else "DRIFT"


class Run:
    """Set-up, warm-up, timed calls and output checks of one workload run."""

    def __init__(self, workload: Any, seed: int, workdir: Path) -> None:
        from workloads import build_inputs

        self.workload = workload
        #: (wall, reference) seconds of each input set-up.
        self.setup_times: List[Tuple[float, float]] = []
        for _ in range(SETUP_REPEATS):
            inputs, seconds, ref = timed(lambda: build_inputs(workload, seed, workdir))
            if self.setup_times and inputs.hashes != self.inputs.hashes:
                raise RuntimeError(f"inputs for seed {seed} differ between two generations")
            self.setup_times.append((seconds, ref))
            self.inputs = inputs
        self.attempted = 0
        #: Reasons of the failed timed calls.
        self.failures: List[str] = []
        #: Why the warm-up output is unusable, if it is.
        self.warmup_failure: Optional[str] = None
        self.warmup_digest: Optional[str] = None
        #: ``output_digest`` -> number of timed calls that returned it.
        self.digests: Dict[str, int] = collections.Counter()

    def warm_up(self, tracer: Any) -> Any:
        """One traced, untimed call; returns its output."""
        from workloads import check_output, make_call, output_digest

        self.call = make_call(self.workload, self.inputs)
        start = time.perf_counter()
        try:
            output = tracer.run(self.call)
        except Exception:
            traceback.print_exc()
            self.warmup_failure = "warm-up call raised"
            return None
        finally:
            self.warmup_s = time.perf_counter() - start
        self.warmup_digest = output_digest(self.workload, output)
        self.warmup_failure = check_output(self.workload, output)
        return output

    def timed_call(
        self,
        run: Callable[[Callable[[], Any]], Any],
        inspect: Optional[Callable[[Any], None]] = None,
    ) -> Optional[Tuple[float, float]]:
        """One timed call: (seconds, reference seconds), ``None`` if it failed.

        ``inspect`` sees each output that passed ``check_output``, outside
        the timed region.  Its digest is kept for ``compare_outputs``.
        """
        from workloads import check_output, output_digest

        self.attempted += 1
        gc.collect()
        try:
            output, seconds, ref = timed(lambda: run(self.call))
        except Exception as error:
            self.failures.append(f"call raised {type(error).__name__}: {error}")
            return None
        reason = check_output(self.workload, output)
        if reason is not None:
            self.failures.append(reason)
            return None
        self.digests[output_digest(self.workload, output)] += 1
        if inspect is not None:
            inspect(output)
        return seconds, ref

    def compare_outputs(self) -> None:
        """Count every timed call whose output differs from the reference as failed.

        The reference of ``clean`` is the warm-up output.  That of
        ``detect`` is non-streamed indexed detection on the materialised
        relation; it is built here, after the peak RSS has been read, so
        the check's own memory stays out of ``peak_rss_mb``.
        """
        from workloads import reference_detection

        if self.workload.entry == "clean":
            expected = self.warmup_digest if self.warmup_failure is None else None
        else:
            expected = reference_detection(self.inputs)
            if self.warmup_failure is None and self.warmup_digest != expected:
                self.warmup_failure = "warm-up output differs from the reference"
        for digest, calls in self.digests.items():
            if digest != expected:
                self.failures += ["output digest differs from the reference"] * calls


def measure(
    args: argparse.Namespace, workdir: Path, tracing: Any, workloads: Any
) -> Dict[str, Any]:
    """Set up, warm up and run the timed loop; everything the report needs."""
    from repro.kernels import resolve_kernel_name

    run = Run(workloads.WORKLOADS[args.workload], args.seed, workdir)
    tracer = tracing.Tracer()
    warm = run.warm_up(tracer)
    backends = dict(getattr(warm, "backends", None) or {})
    backends.setdefault("kernel", resolve_kernel_name(None))
    if run.workload.entry == "detect":
        streamed = "detection.stream" in tracing.span_totals(tracer.spans, tracer.run_id)
        backends["detect"] = "indexed-stream" if streamed else "materialised"
    parallel = {stage: tracer.parallel_stats.get(stage) for stage in ("detect", "repair")}

    untraced: List[Tuple[float, float]] = []
    traced: List[Tuple[float, float]] = []
    traced_values: List[Dict[str, float]] = []

    def keep_layer_values(output: Any) -> None:
        traced_values.append(tracing.layer_values(tracer, run.workload.entry, output))

    deadline = time.perf_counter() + args.seconds
    while run.attempted == 0 or time.perf_counter() < deadline:
        times = run.timed_call(lambda call: call())
        if times is not None:
            untraced.append(times)
        if args.trace:
            times = run.timed_call(tracer.run, keep_layer_values)
            if times is not None:
                traced.append(times)
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workers_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.compare_outputs()
    if args.trace:
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    return {
        "run": run,
        "warm": warm,
        "backends": backends,
        "parallel": parallel,
        "untraced": untraced,
        "traced": traced,
        "traced_values": traced_values,
        "self_rss_mb": self_rss_mb,
        "workers_rss_mb": workers_rss_mb,
    }


def report(args: argparse.Namespace, m: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable lines; return the final JSON object."""
    import tracing

    run, warm = m["run"], m["warm"]
    run_wall = [seconds for seconds, _ref in m["untraced"]]
    run_s = median_or_zero(run_wall)
    import_wall, import_s = wall_and_reference(m["import_times"])
    inputs_wall, inputs_s = wall_and_reference(run.setup_times)
    clean_output = warm is not None and run.workload.entry == "clean"
    end_to_end: List[Tuple[str, float, str]] = [
        ("setup_s", import_s + inputs_s, "s"),
        ("setup_wall_s", import_wall + inputs_wall, "s"),
        ("run_ref", median_or_zero([seconds / ref for seconds, ref in m["untraced"]]), "ref"),
        ("run_s", run_s, "s"),
        ("peak_rss_mb", m["self_rss_mb"], "MiB"),
        ("peak_rss_workers_mb", m["workers_rss_mb"], "MiB"),
        ("fail_frac", len(run.failures) / run.attempted, "ratio"),
        ("repair_cost", warm.total_cost if clean_output else 0.0, "cost"),
        ("cells_changed", len(warm.changes) if clean_output else 0, "count"),
    ]

    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} rows={run.inputs.rows}"
    )
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} numpy={m['numpy']} "
        f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}"
    )
    print("backends " + " ".join(f"{key}={value}" for key, value in sorted(m["backends"].items())))
    print(
        "parallel "
        + " ".join(
            f"{stage}={stats.mode}/workers={stats.workers}/shards={stats.shard_count}"
            if stats is not None
            else f"{stage}=not-run"
            for stage, stats in m["parallel"].items()
        )
    )
    status = pinned_status(args.workload, run.inputs.rows, args.seed, run.inputs.hashes)
    for name, digest in sorted(run.inputs.hashes.items()):
        print(f"input {name} sha256={digest} pinned={status}")
    if status == "DRIFT":
        print(
            "perfbench: the generated inputs differ from pinned_inputs.json "
            "(repro.datagen changed?); timings are not comparable across that change",
            file=sys.stderr,
        )
    print(
        f"import_wall_s {import_wall:.4f} inputs_wall_s {inputs_wall:.4f} "
        f"warmup_wall_s {run.warmup_s:.4f}"
    )
    for name, value, unit in end_to_end:
        print(f"{name} {value:.6g} {unit}")
    print(f"run_samples {len(run_wall)}")
    print(f"ref_loop_ms {1000 * median_or_zero([ref for _s, ref in m['untraced']]):.4f}")
    tail = tail_percentile(run_wall)
    if tail is not None:
        print(f"run_p{tail[0]}_s {tail[1]:.6g} s")
    if run.warmup_failure:
        print(f"FAILED warm-up: {run.warmup_failure}", file=sys.stderr)
    for reason in run.failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)

    if args.trace:
        traced_values = m["traced_values"]
        traced_s = median_or_zero([seconds for seconds, _ref in m["traced"]])
        metrics = {
            name: median_or_zero([values[name] for values in traced_values])
            for name in (traced_values[0] if traced_values else ())
        }
        metrics.update(
            {
                "parallel.peak_rss_workers_mb": m["workers_rss_mb"],
                "trace.run_s": traced_s,
                "trace.untraced_run_s": run_s,
                "trace.overhead_frac": traced_s / run_s - 1.0 if run_s else 0.0,
            }
        )
        units = tracing.PER_LAYER
        metrics = {name: metrics.get(name, 0.0) for name in units}
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
    else:
        metrics = {name: value for name, value, _unit in end_to_end if name in GATED}
        units = {name: unit for name, _value, unit in end_to_end}
    return {
        "correct": not run.failures and run.warmup_failure is None,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    set_env = [name for name in PINNED_ENV if os.environ.get(name)]
    if set_env:
        print(f"perfbench: unset {', '.join(set_env)}; they pick the code path", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    numpy, tracing, workloads = (
        importlib.import_module(name) for name in ("numpy", "tracing", "workloads")
    )
    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measured = measure(args, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # After measure() has read the children's peak RSS: these interpreters
    # are not pool workers.
    measured["import_times"] = import_times()
    measured["numpy"] = numpy.__version__
    print(json.dumps(report(args, measured)))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Dict and set layouts follow the string hash seed and move the
        # timings by several percent from process to process: pin it.
        os.execve(
            sys.executable,
            [sys.executable, __file__, *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
