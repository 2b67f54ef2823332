"""toposig benchmark: seeded workloads through the real CLI chain.

    python3 bench/run.py --workload planted_20k --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's command chain as subprocesses, each time in
a fresh empty ``--out``, again and again for ``--seconds``, and reports the
end-to-end metrics as medians over the runs that passed every check.
``--trace 1`` runs the chain once in-process through ``cli.main`` with the
tracer installed and reports the per-layer metrics.  Both check the outputs
and compare the CLI's z-scores with the library path.  The last line of
standard output is one JSON object; everything before it is for people.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# at least two passes for the byte-identity check; timed runs stop on an odd
# count, so the median of a bimodal peak RSS is one of the measured values
MIN_REPS = 3
SETUP_RUNS = 5
MB = 1 << 20
NOT_RUN = -1.0  # z difference reported when the library check could not run

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from checks import Z_MAXDIFF, check_outputs, z_cli_lib_maxdiff  # noqa: E402
from layers import OBSERVERS, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import OUT, Workload  # noqa: E402

WORKLOADS = {
    "planted_20k": workloads.planted,
    "edges_100k": lambda d, s: workloads.edges(d, s, 100_000, 500_000),
    "links_40k": lambda d, s: workloads.links(d, s, 40_000),
    # full scale; too slow for the repeated runs BENCHMARK.json asks for (README)
    "edges_1m": lambda d, s: workloads.edges(d, s, 1_000_000, 5_000_000),
    "links_300k": lambda d, s: workloads.links(d, s, 300_000),
}


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[int, os.struct_rusage]:
    """Run one process to its end; return its exit code and its own rusage."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage


def run_chain(wl: Workload, out: Path, env: dict[str, str], log: Path) -> Rep:
    """One pass of the workload's commands; wall time from first launch to last exit."""
    out.mkdir()
    rep = Rep()
    start = time.perf_counter()
    for cmd in wl.commands:
        args = [a.replace(OUT, str(out)) for a in cmd]
        code, usage = spawn([sys.executable, "-m", "toposig.cli", *args], env, log)
        rep.cpu_s += usage.ru_utime + usage.ru_stime
        rep.peak_rss_mb = max(rep.peak_rss_mb, usage.ru_maxrss * 1024 / MB)  # KiB on Linux
        if code != 0:
            rep.failures.append(f"'{args[0]}' exited {code}")
            break
    rep.wall_s = time.perf_counter() - start
    return rep


def measure_setup(env: dict[str, str], log: Path) -> list[float]:
    """Wall time of fresh interpreters importing the CLI, as every invocation pays."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        code, _ = spawn([sys.executable, "-c", "import toposig.cli"], env, log)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import toposig.cli exited {code}")
    return times


def library_check(wl: Workload, out: Path, seed: int) -> tuple[float, list[str]]:
    try:
        diff = z_cli_lib_maxdiff(wl, out, seed)
    except (OSError, ValueError) as exc:
        return NOT_RUN, [f"library check failed: {exc}"]
    failures = [] if diff <= Z_MAXDIFF else [f"CLI and library z differ by {diff:.3g}"]
    return diff, failures


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def timed_runs(wl: Workload, work: Path, seed: int, seconds: float) -> dict:
    env = child_env()
    log = work / "stderr.log"
    reps: list[Rep] = []
    first_results: bytes | None = None
    kept: Path | None = None
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline or len(reps) % 2 == 0:
        out = work / f"run{len(reps)}"
        rep = run_chain(wl, out, env, log)
        if not rep.failures:
            rep.failures = check_outputs(wl, out)
        if not rep.failures:
            results = (out / "results.tsv").read_bytes()
            first_results = first_results or results
            if results != first_results:
                rep.failures.append("results.tsv differs from the first repetition")
        reps.append(rep)
        if kept is None and not rep.failures:
            kept = out
        else:
            shutil.rmtree(out)
    if kept is not None:
        diff, lib_failures = library_check(wl, kept, seed)
    else:
        diff, lib_failures = NOT_RUN, ["no repetition passed, library check not run"]
    if lib_failures:
        # every repetition wrote the same results.tsv, so the check speaks for all
        for rep in reps:
            rep.failures.extend(lib_failures)
    setup = measure_setup(env, log)
    if any(r.failures for r in reps):
        sys.stderr.write(log.read_text(errors="replace")[-4000:])

    passed = [r for r in reps if not r.failures] or reps
    samples = {
        "wall_s": ([r.wall_s for r in passed], "s"),
        "cpu_s": ([r.cpu_s for r in passed], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in passed], "MB"),
        "setup_s": (setup, "s"),
    }
    failed = sum(bool(r.failures) for r in reps)
    return {
        "attempted": len(reps),
        "failed": failed,
        "failures": sorted({f for r in reps for f in r.failures}),
        "metrics": {k: (statistics.median(v), u) for k, (v, u) in samples.items()},
        "samples": samples,
        "extra": {"fail_frac": (failed / len(reps), "ratio", len(reps)),
                  "check.z_cli_lib_maxdiff": (diff, "z", 1)},
    }


def traced_run(wl: Workload, work: Path, inputs: Path, seed: int) -> dict:
    from toposig import cli  # after main() checked where toposig comes from

    out = work / "traced"
    out.mkdir()
    codes = []
    with Tracer(OBSERVERS) as tr, contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        for cmd in wl.commands:
            codes.append(cli.main([a.replace(OUT, str(out)) for a in cmd]))
            if codes[-1]:
                break
        wall = time.perf_counter() - start
    failures = [f"'{c[0]}' exited {code}" for c, code in zip(wl.commands, codes) if code]
    if failures:
        metrics = {}
        diff = NOT_RUN
    else:
        failures = check_outputs(wl, out)
        metrics = layer_metrics(tr, out, inputs, wall)
        diff, lib_failures = library_check(wl, out, seed)
        failures += lib_failures
    metrics["check.z_cli_lib_maxdiff"] = (diff, "z")
    return {
        "attempted": 1,
        "failed": int(bool(failures)),
        "failures": failures,
        "metrics": metrics,
        "samples": {},
        "extra": {"trace.wall_s": (wall, "s", 1)},
        "absent": tr.absent,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment() -> dict[str, str]:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def print_table(result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        values = result["samples"].get(name, ([value],))[0]
        spread = f"  min {min(values):.4g}  max {max(values):.4g}" if len(values) > 1 else ""
        print(f"  {name:34s} {value:>14.6g} {unit:11s} n={len(values)}{spread}")
    for name, (value, unit, n) in result["extra"].items():
        print(f"  {name:34s} {value:>14.6g} {unit:11s} n={n}")


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toposig" / "cli.py").is_file():
        print(f"bench: no toposig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import toposig

    if not Path(toposig.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: toposig imported from {toposig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = load_benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        wl = WORKLOADS[args.workload](inputs, args.seed)
        if args.trace:
            result = traced_run(wl, work, inputs, args.seed)
        else:
            result = timed_runs(wl, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    print(f"# toposig benchmark: workload {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s, trace {args.trace}")
    print(f"# environment {json.dumps(environment())}")
    if result.get("absent"):
        print(f"# absent from toposig, reported as 0: {', '.join(result['absent'])}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    print_table(result)
    metrics = {}
    for metric in wanted:
        value, unit = result["metrics"].get(metric["name"], (0.0, metric["unit"]))
        metrics[metric["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
