"""Child process of the benchmark: one fresh interpreter per measurement.

    worker.py setup   INPUTS_JSON
        set up the workload, print "ready" and exit (timed by the parent)
    worker.py measure INPUTS_JSON SECONDS TRACE MIN_OPS RESULT_JSON [SPANS_OUT]
        set up, then run operations until SECONDS would be exceeded (at least
        MIN_OPS), checking each one; TRACE=1 wraps hambr's public functions

hambr is imported from the checkout's own `src`, never from site-packages.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hambr  # noqa: E402

if Path(hambr.__file__).resolve().parent != ROOT / "src" / "hambr":
    sys.exit(f"hambr imported from {hambr.__file__}, not from this checkout")

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def measure(inputs: dict, seconds: float, traced: bool, min_ops: int,
            spans_out: str | None) -> dict:
    state = workloads.setup(inputs)
    work = Path(inputs["config"]).parent / ("traced" if traced else "plain")
    durations, errors, layers, counters = [], [], [], []
    reference = quality = artifact = None
    first_tracer = None
    attempted = 0
    begin = perf_counter()
    while True:
        out_dir = work / f"op-{attempted}"
        tracer = Tracer() if traced else None
        attempted += 1
        try:
            scope = tracer.operation(attempted) if traced else contextlib.nullcontext()
            with scope:
                start = perf_counter()
                result = workloads.run_op(state, out_dir)
                elapsed = perf_counter() - start
            digests = workloads.check_op(state, out_dir)
            if reference is None:
                reference = digests
                quality = workloads.quality(state, out_dir, result)
                artifact = workloads.artifact_bytes(out_dir)
            elif digests != reference:
                raise workloads.CheckFailed("outputs differ from the first operation's")
            del result
            if traced:
                layers.append(tracer.op_summary(attempted))
                counters.append(dict(tracer.counters[attempted]))
                if len(layers) > 1 and ({k: c for k, (c, _) in layers[-1].items()}
                                        != {k: c for k, (c, _) in layers[0].items()}):
                    raise workloads.CheckFailed("call counts differ between operations")
                if first_tracer is None:
                    first_tracer = tracer
            durations.append(elapsed)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            errors.append(f"operation {attempted}: {exc!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        spent = perf_counter() - begin
        typical = statistics.median(durations) if durations else spent / attempted
        if attempted >= min_ops and spent + typical > seconds:
            break
    if first_tracer is not None and spans_out:
        first_tracer.dump(spans_out)
    return {
        "durations": durations,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "digests": reference,
        "quality": quality,
        "artifact_bytes": artifact,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": _median_layers(layers),
        "counters": counters[0] if counters else {},
    }


def _median_layers(layers: list[dict]) -> dict:
    """Calls of the first traced operation, median self seconds over all of them."""
    if not layers:
        return {}
    return {name: (calls, statistics.median(op.get(name, (0, 0.0))[1] for op in layers))
            for name, (calls, _) in layers[0].items()}


def main(argv: list[str]) -> int:
    mode, inputs = argv[0], json.loads(Path(argv[1]).read_text())
    if mode == "setup":
        workloads.setup(inputs)
        print("ready", flush=True)
        return 0
    seconds, traced, min_ops, result_path = float(argv[2]), argv[3] == "1", int(argv[4]), argv[5]
    spans_out = argv[6] if len(argv) > 6 else None
    result = measure(inputs, seconds, traced, min_ops, spans_out)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
