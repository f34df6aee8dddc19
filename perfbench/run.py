"""hambr benchmark: three workloads, run-level metrics, a traced per-layer breakdown.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics from untraced runs; `--trace 1`
makes a separate traced run and reports the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every workload
one after another and ends with one JSON object over all of them.

Every file the run makes lives under `.perfbench/` in the checkout; the
operations' outputs go to a temporary directory there that is removed at the
end, and the spans of the first traced operation are kept in
`.perfbench/traces/<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 10    # fresh processes per run, half before and half after the
                      # measured operations; setup_s is the fastest
MIN_PLAIN_OPS = 2     # the second one is the same-seed determinism check
WORKER_GRACE_S = 60   # a worker overrunning its budget by this much is killed

# One BLAS thread.  On a 2-core box a second OpenBLAS thread made `default`
# about 8% slower (it spins between the many small matmuls, doubling CPU time)
# and left `large-n` unchanged, while widening the spread between runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Times are the fastest of their repeats, not the median.  The speed of a
# shared 2-core host drifts in phases of seconds to minutes: within 100 s,
# `default` operations took from 3.57 s to 6.20 s, and a fixed pure-Python loop
# timed between them moved in step (17.5 ms to 29 ms).  Over ten seeds the
# per-run median of `default` spread by a third of its median.  The work is
# deterministic, so the fastest repeat is its cost with the least interference.
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "auroc_final": "ratio",
    "sel_f1_final": "ratio",
    "ridge_pct": "%",
}

# Traced names reported per layer: every one that some workload calls.
LAYER_FUNCTIONS = (
    "sphere.geodesic_step", "sphere.normalize", "sphere.project_tangent",
    "sphere.sample_tangent_gaussian", "sphere.transport",
    "sphere.UnitVector", "sphere.TangentVector",
    "energy.class_free_energy", "energy.dump_bank", "energy.global_potential",
    "energy.load_bank", "energy.potential_batch", "energy.riemannian_grad_U",
    "energy.FeatureBank.add", "energy.FeatureBank.snapshot",
    "sampler.dshd_step", "sampler.dump_outliers", "sampler.run_chain",
    "sampler.synthesize_outliers",
    "partition.clean_posterior", "partition.consensus_set",
    "partition.consensus_update", "partition.dump_partition", "partition.fit_gmm_1d",
    "losses.compute_prototypes", "losses.contrastive_grads",
    "synthgen.dump_dataset", "synthgen.inject_noise", "synthgen.make_dataset",
    "synthgen.make_ood_set", "synthgen.sample_vmf",
    "metrics.auroc", "metrics.csv_header", "metrics.fpr_at_95_tpr",
    "metrics.geometry_metrics", "metrics.selection_f1", "metrics.singular_spectrum",
    "runner.config_from_dict", "runner.config_to_dict", "runner.load_config",
    "runner.run_experiment",
    "cli.cli_main",
)

COUNTER_UNITS = {"sampler.ridge_hit_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTERS

    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = COUNTER_UNITS.get(name, "count")
    units["runner.artifact_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    return units


def machine_stamp() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads(np),
            "machine": platform.machine()}


def _blas_threads(np) -> int | str:
    """Thread count of numpy's bundled OpenBLAS, asked through ctypes."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(durations)
    if n < 11:
        return None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


class Run:
    """One workload at one seed: inputs, child processes, and the report."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool,
                 workdir: Path, env: dict):
        import workloads

        self.workload, self.seconds, self.env = workload, seconds, env
        self.workdir = workdir / workload
        self.workdir.mkdir()
        self.inputs = self.workdir / "inputs.json"
        self.inputs.write_text(json.dumps(
            workloads.prepare(workload, seed, self.workdir, tiny)))
        self.errors: list[str] = []

    def _setup_seconds(self, repeats: int) -> list[float] | None:
        """Wall times from process start to the first unit of work."""
        times = []
        for _ in range(repeats):
            start = perf_counter()
            with subprocess.Popen([sys.executable, str(WORKER), "setup", str(self.inputs)],
                                  stdout=subprocess.PIPE, text=True, env=self.env) as proc:
                try:
                    line = proc.stdout.readline()
                    ready = perf_counter()
                    proc.communicate(timeout=WORKER_GRACE_S)
                except BaseException:
                    proc.kill()
                    raise
            if line.strip() != "ready" or proc.returncode != 0:
                self.errors.append(f"set-up process exited with {proc.returncode}")
                return None
            times.append(ready - start)
        return times

    def _measure(self, seconds: float, traced: bool, min_ops: int) -> dict | None:
        tag = "traced" if traced else "plain"
        result = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(WORKER), "measure", str(self.inputs), repr(seconds),
               "1" if traced else "0", str(min_ops), str(result)]
        if traced:
            traces = STATE_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd.append(str(traces / f"{self.workload}.jsonl"))
        try:
            # the worker's own output stays off stdout, whose last line is the result
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{tag} worker killed after {seconds + WORKER_GRACE_S} s")
            return None
        if proc.returncode != 0 or not result.exists():
            self.errors.append(f"{tag} worker exited with {proc.returncode}")
            return None
        doc = json.loads(result.read_text())
        self.errors += doc["errors"]
        return doc

    def end_to_end(self) -> tuple[dict, list[str], int, int]:
        # set-up probes on both sides of the measurement, so that a slow phase
        # of the machine covers fewer of them
        before = self._setup_seconds(SETUP_REPEATS // 2)
        plain = self._measure(self.seconds, False, MIN_PLAIN_OPS)
        after = self._setup_seconds(SETUP_REPEATS - SETUP_REPEATS // 2)
        probes = before + after if before and after else None
        attempted = plain["attempted"] if plain else 1
        failed = plain["failed"] if plain else 1
        values = dict.fromkeys(END_TO_END, 0.0)
        lines = []
        if probes:
            values["setup_s"] = min(probes)
            lines.append(f"setup_s       {values['setup_s']:.4f} s   fastest of {len(probes)} fresh "
                         f"processes, median {statistics.median(probes):.4f} s")
        if plain and plain["durations"]:
            d = plain["durations"]
            values["run_s"] = min(d)
            values["peak_rss_mb"] = plain["peak_rss_mb"]
            values.update(plain["quality"])
            lines.append(f"run_s         {values['run_s']:.4f} s   fastest of {len(d)} operations, "
                         f"median {statistics.median(d):.4f} s: "
                         + " ".join(f"{x:.3f}" for x in d))
            t = tail(d)
            lines.append("run_s_tail    " + (
                f"{t[0]:.4f} s   p{t[1]:.1f}, 10 of {len(d)} operations beyond it" if t else
                f"n/a        needs >= 11 operations for 10 beyond a percentile, had {len(d)}"))
            lines.append(f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB  peak RSS of the measuring process")
            for name in ("auroc_final", "sel_f1_final", "ridge_pct"):
                lines.append(f"{name:<13} {values[name]:.6f} {END_TO_END[name]}")
        lines.append(f"failed_share  {failed / attempted:.4f}   {failed} of {attempted} operations")
        return values, lines, attempted, failed

    def per_layer(self) -> tuple[dict, list[str], int, int]:
        half = self.seconds / 2.0
        plain = self._measure(half, False, 1)
        traced = self._measure(half, True, 1)
        runs = [r for r in (plain, traced) if r]
        attempted = sum(r["attempted"] for r in runs) or 1
        failed = sum(r["failed"] for r in runs) + 2 - len(runs)
        if plain and traced and plain["digests"] != traced["digests"]:
            self.errors.append("traced outputs differ from untraced outputs")
            failed += 1
        values = dict.fromkeys(per_layer_units(), 0.0)
        lines = []
        if traced and plain and traced["durations"] and plain["durations"]:
            layers = traced["layers"]
            for name in LAYER_FUNCTIONS:
                calls, self_s = layers.get(name, (0, 0.0))
                values[f"{name}.calls"] = calls
                values[f"{name}.self_s"] = self_s
            values.update(traced["counters"])
            values["runner.artifact_bytes"] = traced["artifact_bytes"]
            run_traced = min(traced["durations"])
            run_plain = min(plain["durations"])
            values["trace.overhead_s"] = run_traced - run_plain
            lines.append(f"run_s traced {run_traced:.4f} s, untraced {run_plain:.4f} s")
            lines.append(f"{'span':<36} {'calls':>9} {'self_s':>10}")
            for name, (calls, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
                lines.append(f"{name:<36} {calls:>9} {self_s:>10.4f}")
            for name, value in traced["counters"].items():
                lines.append(f"{name:<36} {value:>9}")
            lines.append(f"{'runner.artifact_bytes':<36} {traced['artifact_bytes']:>9}")
        return values, lines, attempted, failed


def _run_one(workload, args, workdir, env) -> dict:
    run = Run(workload, args.seed, args.seconds, args.tiny, workdir, env)
    measure = run.per_layer if args.trace else run.end_to_end
    values, lines, attempted, failed = measure()
    units = per_layer_units() if args.trace else END_TO_END
    print(f"== workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}{'  (tiny)' if args.tiny else ''}")
    for line in lines:
        print("  " + line)
    for error in run.errors:
        print("  error: " + error)
    return {"correct": not run.errors and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few epochs and samples")
    args = parser.parse_args(argv)

    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE_DIR))
    env = dict(os.environ, TMPDIR=str(workdir), **BLAS_ENV)
    print("machine " + json.dumps(machine_stamp()))
    try:
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {name: _run_one(name, args, workdir, env) for name in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        final = results[args.workload]
    else:
        for name, res in results.items():
            print(json.dumps(dict(res, workload=name)))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


def _require_checkout() -> None:
    """The program under test is the checkout's own `src/hambr`."""
    if not (ROOT / "src" / "hambr" / "__init__.py").is_file():
        sys.exit(f"error: no hambr sources at {ROOT / 'src' / 'hambr'}; "
                 "run from a hambr checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy loads, so the stamp shows it
    _require_checkout()
    sys.exit(main())
