"""grover-kit benchmark: CLI jobs end to end, and per-module spans when traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload deep --seed 1 --seconds 36 --trace 0

One client drives ``grover_kit.cli.main(argv)`` in this process, closed
loop: each job starts when the previous one has returned and its stdout has
been checked against the closed form (``check.py``). Jobs repeat the
workload's cycle (``workloads.py``) until ``--seconds`` have passed, in
whole cycles so that every run does the same mix.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced cycles, reports the per-layer metrics of
BENCHMARK.json per cycle, the tracing overhead, and writes every span to
``perfbench/out/spans-<workload>.npz``. The last line of stdout is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import os

# One thread per workload process: numpy's BLAS pool would add threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from check import check, expected_steps  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import make_jobs, p_marked  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_STARTS = 9
COLD_START_ARGV = ["predict", "--n", "12", "--m", "3", "--optimal", "--format", "json"]
WARMUP_S = 2.0
TAIL_BEYOND = 10
MEM_PASS_BATCHES = 5
REF_WIDTHS = range(6, 22)

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYER_EFFECTS = {
    "statevector.{H,X,MCZ,MCX}": "call overhead: jobs_per_s, job_s.p50 on deep; "
    "memory passes: jobs_per_s, job_s.tail on wide",
    "statevector.validate": "report: one call per trace snapshot; "
    "wide: final state, stripped state and plane bases",
    "circuit.build, circuit.run.us_per_op": "dispatch: jobs_per_s on deep",
    "circuit.run.{snapshots,snapshot_mib,snapshots_used_ratio}": "peak_rss_mib on report",
    "geometry.{strip_ancilla,plane_decompose,oblique_coords}": "jobs_per_s on wide",
    "geometry.iteration_report": "job_s.tail on deep, where the sweeps are",
    "sampling.measure_all": "job_s.tail on wide",
    "cli.self_s, cli.output_mib": "jobs_per_s on report",
}
KERNELS = ("H", "X", "MCZ", "MCX")
PASS_LAYERS = (
    *(f"statevector.{k}" for k in KERNELS),
    "statevector.validate",
    "geometry.strip_ancilla",
    "geometry.plane_decompose",
    "geometry.oblique_coords",
    "sampling.measure_all",
)


class BenchError(Exception):
    """The benchmark cannot produce a result; exit 1 without one."""


def import_cli():
    """grover_kit.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "grover_kit" / "cli.py").is_file():
        raise BenchError(f"no grover_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grover_kit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "grover_kit":
        raise BenchError(f"imported grover_kit from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def cold_start_seconds() -> float:
    """Median wall time of a fresh interpreter running one ``predict``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "grover_kit.cli", *COLD_START_ARGV]
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"cold start exited {proc.returncode}: {proc.stderr.strip()}")
        doc = json.loads(proc.stdout)
        k = doc["rows"][0]["iterations"]
        if abs(doc["rows"][0]["p_marked_formula"] - p_marked(12, 3, k)) > 2e-6:
            raise BenchError("cold start predict disagrees with the closed form")
    return statistics.median(times)


class Client:
    """The single closed-loop client: runs jobs, checks them, keeps the tallies."""

    def __init__(self, cli, jobs):
        self.cli = cli
        self.jobs = jobs
        self.times: list[float] = []
        self.failures: list[str] = []
        self.output_bytes = 0
        self.rendered_steps = 0

    def job(self, job, tracer=None) -> float:
        if tracer is not None:
            tracer.job_id += 1
        seconds, code, out, err = run_job(self.cli, job.argv())
        reason = check(job, code, out)
        if reason is not None:
            self.failures.append(f"{' '.join(job.argv())}: {reason} {err.strip()[:200]}")
        self.times.append(seconds)
        self.output_bytes += len(out)
        if tracer is not None and job.trace:
            self.rendered_steps += expected_steps(job)
        return seconds

    def cycle(self, tracer=None) -> float:
        """Run every job once; the sum of their wall times."""
        return sum(self.job(job, tracer) for job in self.jobs)

    def warm_up(self) -> None:
        deadline = time.perf_counter() + WARMUP_S
        for job in self.jobs:
            if time.perf_counter() > deadline:
                break
            run_job(self.cli, job.argv())


def prepare(cli, workload: str, seed: int, tmpdir: Path):
    jobs = make_jobs(workload, seed, str(tmpdir))
    for job in jobs:
        if job.circuit_file:
            _, code, _, err = run_job(cli, job.dump_argv(job.circuit_file))
            if code != 0:
                raise BenchError(f"dump for {job.circuit_file} exited {code}: {err.strip()}")
    return jobs


def until(seconds: float, step, min_steps: int = 1) -> None:
    """Call step() min_steps times, then again while that ends nearer to ``seconds``."""
    start = time.perf_counter()
    steps = 0
    while True:
        step()
        steps += 1
        elapsed = time.perf_counter() - start
        if steps >= min_steps and seconds - elapsed < elapsed / steps / 2:
            break


def end_to_end(client: Client, seconds: float) -> dict[str, float]:
    until(seconds, client.cycle)
    times = sorted(client.times)
    beyond = min(TAIL_BEYOND, len(times) - 1)
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": times[len(times) - 1 - beyond],
        "job_s.tail.percentile": 100.0 * (len(times) - beyond) / len(times),
        "job_s.tail.jobs_beyond": beyond,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(client.failures) / len(times),
    }


def mem_pass_seconds(width: int) -> float:
    """Median time of one complex128 copy of 2^width amplitudes."""
    src = np.ones(1 << width, dtype=np.complex128)
    dst = np.empty_like(src)
    reps = max(1, (1 << 20) >> width)
    batches = []
    for _ in range(MEM_PASS_BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        batches.append((time.perf_counter() - start) / reps)
    return statistics.median(batches)


def last_level_cache_bytes() -> int:
    """Size of the highest cache level of cpu0, from sysfs; 0 when unknown."""
    best_level, size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            raw = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        if level > best_level and raw.rstrip("KMG").isdigit():
            best_level, size = level, int(raw.rstrip("KMG")) * scale
    return size


def per_layer(client: Client, tracer, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced cycles; per-layer figures per traced cycle."""
    untraced, traced = [], []
    traced_bytes = 0

    def alternate():
        nonlocal traced_bytes
        if len(untraced) == len(traced):
            untraced.append(client.cycle())
            return
        bytes_before = client.output_bytes
        with tracer.installed():
            traced.append(client.cycle(tracer))
        traced_bytes += client.output_bytes - bytes_before

    until(seconds, alternate, min_steps=2)
    cycles = len(traced)
    spans = tracer.arrays()
    widths = sorted(set(REF_WIDTHS) | set(np.unique(spans["width"]).tolist()) - {0})
    ref = np.zeros(widths[-1] + 1)
    for w in widths:
        ref[w] = mem_pass_seconds(w)
    metrics = {f"ref.mem_pass_ms.n{w}": ref[w] * 1e3 for w in REF_WIDTHS}
    for name in (*PASS_LAYERS, "circuit.build", "circuit.run", "geometry.iteration_report", "cli.main"):
        sel = spans["name"] == tracer.name_id(name)
        self_s = spans["self"][sel]
        metrics[f"{name}.calls"] = sel.sum() / cycles
        metrics[f"{name}.self_s"] = self_s.sum() / cycles
        if name in PASS_LAYERS:
            passes = self_s / ref[spans["width"][sel]]
            metrics[f"{name}.mem_passes"] = float(np.median(passes)) if sel.any() else 0.0
    ops = tracer.ops / cycles
    off = len(client.jobs) / statistics.median(untraced)
    on = len(client.jobs) / statistics.median(traced)
    metrics.update(
        {
            "circuit.run.ops": ops,
            "circuit.run.us_per_op": metrics["circuit.run.self_s"] / ops * 1e6 if ops else 0.0,
            "circuit.run.snapshots": tracer.snapshots / cycles,
            "circuit.run.snapshot_mib": tracer.snapshot_bytes_max / (1 << 20),
            "circuit.run.snapshots_used_ratio": (
                client.rendered_steps / tracer.snapshots if tracer.snapshots else 0.0
            ),
            "sampling.shots": tracer.shots / cycles,
            "cli.self_s": metrics.pop("cli.main.self_s"),
            "cli.output_mib": traced_bytes / cycles / (1 << 20),
            "trace.jobs_per_s.off": off,
            "trace.jobs_per_s.on": on,
            "trace.overhead_frac": off / on - 1.0,
        }
    )
    return metrics


def select_metrics(metrics: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units, in its order."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("deep", "wide", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = import_cli()
        OUT.mkdir(exist_ok=True)
        tmpdir = OUT / f"tmp-{os.getpid()}"
        tmpdir.mkdir()
        try:
            result = measure(cli, args, spec, tmpdir)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def cache_note(llc: int, widest: int) -> str:
    """Whether the widest state of the run fits in the last-level cache."""
    if not llc:
        return "# llc: unknown, so mem_passes may mix in-cache and out-of-cache figures"
    state = 16 << widest
    fits = "fits in it, so mem_passes are in-cache figures" if state <= llc else "does not fit in it"
    out_of_cache = next(w for w in range(1, 64) if 16 << w > llc)
    return (
        f"# llc: {llc / (1 << 20):g} MiB; the widest state here, 2^{widest} amplitudes = "
        f"{state / (1 << 20):g} MiB, {fits}; an out-of-cache state needs n>={out_of_cache}, "
        "too slow for the run budget"
    )


def measure(cli, args, spec: dict, tmpdir: Path) -> dict:
    llc = last_level_cache_bytes()
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_mib": llc / (1 << 20),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "workload": args.workload,
    }
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    setup = cold_start_seconds() if not args.trace else None
    jobs = prepare(cli, args.workload, args.seed, tmpdir)
    client = Client(cli, jobs)
    client.warm_up()
    if args.trace:
        tracer = Tracer()
        metrics = per_layer(client, tracer, args.seconds)
        tracer.save(str(OUT / f"spans-{args.workload}.npz"), env)
        print(cache_note(llc, max(job.width for job in jobs)))
        for layer, effect in LAYER_EFFECTS.items():
            print(f"# layer {layer} -> {effect}")
        print(
            f"# trace overhead: {metrics['trace.overhead_frac']:.1%} "
            f"({metrics['trace.jobs_per_s.off']:.3f} -> {metrics['trace.jobs_per_s.on']:.3f} jobs/s)"
        )
        chosen = spec["per_layer"]
    else:
        metrics = end_to_end(client, args.seconds)
        metrics["setup_s"] = setup
        print(
            f"# job_s.tail is the p{metrics['job_s.tail.percentile']:.1f} of {len(client.times)} jobs, "
            f"{metrics['job_s.tail.jobs_beyond']} beyond it"
        )
        print(f"failed_frac = {metrics['failed_frac']:.6g} ratio")
        chosen = spec["end_to_end"]
    values = select_metrics(metrics, chosen)
    for name, entry in values.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for failure in client.failures[:5]:
        print(f"# FAILED {failure}", file=sys.stderr)
    attempted = len(client.times)
    return {
        "correct": not client.failures,
        "attempted": attempted,
        "failed": len(client.failures),
        "metrics": values,
    }


if __name__ == "__main__":
    sys.exit(main())
