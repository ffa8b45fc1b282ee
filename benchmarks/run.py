"""doctnn benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run every workload at its default seed and print every metric by name and unit:

    python3 benchmarks/run.py [--seconds 10] [--trace 0|1]

Run one workload; the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 benchmarks/run.py --workload desk_recognize --seed 52 --seconds 10 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured for
``--seconds`` without any wrapper installed and scaled by the machine-speed
gauge (see gauge.py). With ``--trace 1`` the same phases run once, at a fixed
size, under the span tracer (see tracing.py); the metrics are the per-layer
ones, the per-extractor cost table is printed, and the spans are written to
``.bench_out/``.

The program is imported from ``src/`` next to this directory; BLAS is pinned to
one thread before numpy loads, so every run is single-threaded.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Iterator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory inside the checkout for the run's corpus and model files."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def machine_line() -> str:
    import numpy

    return (f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, OPENBLAS_NUM_THREADS="
            f"{os.environ['OPENBLAS_NUM_THREADS']}")


def run_one(name: str, seed: int | None, seconds: float, trace: bool,
            fingerprint_path: Path | None = None) -> int:
    import fingerprint
    import workloads
    from tracing import PER_LAYER, Tracer

    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    tracer = Tracer() if trace else None
    expected = fingerprint.load(fingerprint_path or fingerprint.PATH)
    with scratch_dir() as workdir:
        outcome = workloads.run(workload, seed, seconds, workdir, expected, tracer)

    print(f"workload {name}, seed {seed}, {'traced' if trace else 'timed'} run")
    print(machine_line())
    for note in outcome.notes:
        print(note)
    if trace:
        spans = OUT_DIR / f"spans-{name}.csv.gz"
        tracer.write_spans(spans)
        print(f"wrote {len(tracer.ids)} spans to {spans.relative_to(ROOT)}")
        print("per-extractor cost (served documents):")
        for line in tracer.cost_table():
            print("  " + line)
        definitions = [(n, unit) for n, unit, _ in PER_LAYER]
        values = outcome.layers
    else:
        definitions = [(n, unit) for n, unit, _, _ in workloads.END_TO_END]
        values = outcome.metrics
    for metric, unit in definitions:
        print(f"  {metric:<40} {values[metric]:>14.6g} {unit}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(f"correct: {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in definitions},
    }))
    return 0 if correct else 1


def run_all(seconds: float, trace: bool) -> int:
    """Run each workload at its default seed in its own process and summarise."""
    import workloads

    status = 0
    results = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
        else:
            status = 1
    print()
    print(f"{'workload':<18} {'metric':<40} {'value':>14} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<18} {'correct':<40} {str(result['correct']):>14}")
        print(f"{name:<18} {'failed/attempted':<40} "
              f"{result['failed']:>7}/{result['attempted']:<6}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (the default) for every workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    try:
        import doctnn
        import numpy  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(doctnn.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: doctnn was imported from {doctnn.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        if args.seed is not None:
            parser.error("--seed needs --workload")
        return run_all(args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
