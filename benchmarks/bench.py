#!/usr/bin/env python3
"""rachsim benchmark: CLI workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 benchmarks/bench.py --workload stock_compare --seed 1 --seconds 35 --trace 0
    python3 benchmarks/bench.py --workload all --smoke        # all workloads in seconds

Load model: a closed loop with one client. The benchmark calls
`rachsim.cli.main` in this process, one invocation at a time, for
`--seconds` seconds; consecutive invocations come in pairs with the same
CLI seed, so every output is also checked to be byte-identical to its
twin. Set-up time and peak memory are measured in fresh child processes.
Each invocation's output is checked (see checks.py); an invocation fails
on a non-zero exit code or a failed check.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; wall time is bounded as a ratio to a reference
kernel run around every invocation (see reference.py), and raw wall time
and throughput are printed beside it. With `--trace 1` the run alternates untraced and
traced invocations, derives per-layer metrics from the spans (see
tracing.py), adds the fixed-size layer timings (see micro.py), and prints
those instead. End-to-end numbers come only from untraced invocations.
Spans and a result record with the environment are written under
benchmarks/out/.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries, here and in every child process; set
# before numpy is imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = HERE / "scenarios"
OUT = HERE / "out"

ALPHA = 25.0
PREAMBLES = 64
CHILD_TIMEOUT_S = 120
# Stop taking traced invocations once this many spans are held in memory.
MAX_SPANS = 1_500_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # rachsim subcommand
    scenario: str | None  # file under scenarios/
    frames: int
    reps: int
    smoke_reps: int
    controllers: tuple[str, ...] = ()
    step: float = 0.0
    smoke_step: float = 0.0
    max_load: float = 0.0


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="stock_compare",
            command="compare",
            scenario="stock_wave.scn",
            frames=20,
            reps=5,
            smoke_reps=1,
            controllers=("adaptive", "fixed", "acb", "max"),
        ),
        Workload(
            name="tm2_run",
            command="run",
            scenario="tm2_beta.scn",
            frames=1000,
            reps=5,
            smoke_reps=1,
            controllers=("adaptive",),
        ),
        Workload(
            name="table_sweep",
            command="table",
            scenario=None,
            frames=0,
            reps=0,
            smoke_reps=0,
            step=0.01,
            smoke_step=1.0,
            max_load=700.0,
        ),
    ]
}

END_TO_END_UNITS = {
    "wall_norm": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the result file, but not bounded: raw wall time and
# throughput follow the shared machine's drifting speed (see reference.py).
PRINTED_UNITS = {
    "wall_s": "s",
    "device_attempts_per_s": "1/s",
    "sweep_points_per_s": "1/s",
    "reference_s": "s",
}
# table_sweep does no device attempts; its throughput is swept load points.
TABLE_RATE = "sweep_points_per_s"
SETUP_SAMPLES = 9


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no src/)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_rachsim():
    """Import rachsim from this checkout's src/ and nowhere else."""
    if not (SRC / "rachsim" / "__init__.py").is_file():
        raise SetupError(f"no rachsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rachsim.cli

    if Path(rachsim.cli.__file__).resolve().parent != SRC / "rachsim":
        raise SetupError(f"rachsim imported from {rachsim.cli.__file__}, not {SRC}")
    return rachsim.cli


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rachsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            for line in packed.splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Invocations


class Runner:
    """Runs one workload's invocations and checks every output."""

    def __init__(self, cli, workload: Workload, seed: int, smoke: bool, workdir: Path):
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reps = workload.smoke_reps if smoke else workload.reps
        self.step = workload.smoke_step if smoke else workload.step
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked: dict[int, tuple[str, float]] = {}  # cli seed -> (digest, items)

    def cli_seed(self, pair: int) -> int:
        return (self.seed % 1_000_000) * 1000 + pair

    def argv(self, cli_seed: int, tag: str) -> tuple[list[str], list[Path]]:
        w = self.w
        out = self.workdir / f"{w.name}-{tag}.csv"
        if w.command == "table":
            sweep = self.workdir / f"{w.name}-{tag}_sweep.csv"
            argv = [
                "table", "--alpha", repr(ALPHA), "--max-load", repr(w.max_load),
                "--step", repr(self.step), "--out", str(out), "--sweep-out", str(sweep),
            ]
            return argv, [out, sweep]
        argv = [w.command, "--scenario", str(SCENARIOS / w.scenario)]
        if w.command == "compare":
            argv += ["--controllers", ",".join(w.controllers)]
        else:
            argv += ["--controller", w.controllers[0]]
        argv += ["--seed", str(cli_seed), "--reps", str(self.reps), "--out", str(out)]
        return argv, [out]

    def invoke(self, pair: int) -> tuple[float, float] | None:
        """One timed in-process invocation; (wall_s, items) or None on failure."""
        cli_seed = self.cli_seed(pair)
        argv, outputs = self.argv(cli_seed, "loop")
        for path in outputs:
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception:\n" + traceback.format_exc()
        wall = time.perf_counter() - t0
        if code != 0:
            return self._fail(f"exit {code}: {sink.getvalue()[-500:]}")
        items = self.verify(cli_seed, outputs)
        return None if items is None else (wall, items)

    def verify(self, cli_seed: int, outputs: list[Path]) -> float | None:
        """Check an output; a same-seed repeat must match the first byte for byte."""
        try:
            texts = [p.read_text(encoding="utf-8") for p in outputs]
        except OSError as exc:
            return self._fail(f"cannot read output: {exc}")
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        key = 0 if self.w.command == "table" else cli_seed
        if key in self._checked:
            first, items = self._checked[key]
            if digest != first:
                return self._fail(f"seed {cli_seed}: output differs from the same-seed run")
            return items
        problems, items = self.check(texts)
        if problems:
            return self._fail(f"seed {cli_seed}: " + "; ".join(problems[:5]))
        self._checked[key] = (digest, items)
        return items

    def check(self, texts: list[str]) -> tuple[list[str], float]:
        w = self.w
        if w.command == "compare":
            return checks.check_compare(
                texts[0], list(w.controllers), self.reps, w.frames, ALPHA, PREAMBLES
            )
        if w.command == "run":
            return checks.check_run(texts[0], self.reps, w.frames, ALPHA, PREAMBLES)
        return checks.check_table(texts[0], texts[1], ALPHA, w.max_load, self.step, self.seed)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED {self.w.name}: {message}", file=sys.stderr)
        return None

    # -- fresh processes ----------------------------------------------------

    def setup_time(self) -> float:
        """Fresh interpreter to imported rachsim.cli and parsed scenario."""
        code = "import sys, rachsim.cli\nif len(sys.argv) > 1: rachsim.cli.parse_scenario(sys.argv[1])\n"
        args = [sys.executable, "-c", code]
        if self.w.scenario:
            args.append(str(SCENARIOS / self.w.scenario))
        t0 = time.perf_counter()
        proc = subprocess.run(
            args, env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
        return elapsed

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process running one invocation; checks its output."""
        code = (
            "import resource, sys, rachsim.cli\n"
            "rc = rachsim.cli.main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(rc)\n"
        )
        cli_seed = self.cli_seed(0)
        argv, outputs = self.argv(cli_seed, "rss")
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            self._fail(f"child exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
            return float("nan")
        if self.verify(cli_seed, outputs) is None:
            return float("nan")
        return int(proc.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB


# ---------------------------------------------------------------------------
# Runs


def end_to_end_run(runner: Runner, seconds: float) -> tuple[dict[str, float], dict, dict]:
    """Untraced closed loop; returns (bounded metrics, printed-only metrics, samples).

    Every invocation is sandwiched between two runs of the reference kernel
    (see reference.py): `wall_norm` is the median over invocations of wall
    time over the mean of the two kernel times, which cancels drifts of the
    machine's speed. Set-up samples are spread evenly over the run, so they
    see the same drifts.
    """
    n_setup = 1 if runner.smoke else SETUP_SAMPLES
    runner.setup_time()  # warms the file cache; untimed
    rss = runner.peak_rss_mb()
    reference.kernel()  # warm-up; untimed
    walls, norms, rates, refs, setup = [], [], [], [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    before = reference.time_kernel()
    count = 0
    while time.perf_counter() < t_end or count < 2:
        result = runner.invoke(count // 2)
        after = reference.time_kernel()
        count += 1
        if result is not None:
            wall, items = result
            ref = (before + after) / 2
            walls.append(wall)
            norms.append(wall / ref)
            refs.append(ref)
            rates.append(items / wall)
        before = after
        if len(setup) < n_setup and time.perf_counter() >= t_start + (len(setup) + 0.5) * seconds / n_setup:
            setup.append(runner.setup_time())
            before = reference.time_kernel()
    while len(setup) < n_setup:
        setup.append(runner.setup_time())
    rate = TABLE_RATE if runner.w.command == "table" else "device_attempts_per_s"
    metrics = {
        "wall_norm": median(norms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }
    printed = {"wall_s": median(walls), rate: median(rates), "reference_s": median(refs)}
    samples = {"wall_s": walls, "wall_norm": norms, "reference_s": refs, "setup_s": setup,
               "invocations": len(walls)}
    return metrics, printed, samples


def traced_run(runner: Runner, seconds: float) -> tuple[dict[str, float], dict, dict]:
    # these import rachsim, so only after import_rachsim() has run
    import micro
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    csv_bytes = csv_rows = 0.0
    t_end = time.perf_counter() + seconds
    pair = 0
    while (time.perf_counter() < t_end and len(tracer) < MAX_SPANS) or pair < 2:
        result = runner.invoke(pair)
        if result is not None:
            untraced.append(result[0])
        tracer.current_invocation = len(traced)
        tracer.install()
        try:
            result = runner.invoke(pair)
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append(result[0])
            outputs = runner.argv(runner.cli_seed(pair), "loop")[1]
            csv_bytes = sum(p.stat().st_size for p in outputs)
            csv_rows = sum(p.read_text(encoding="utf-8").count("\n") - 1 for p in outputs)
        pair += 1
    metrics = tracing.layer_metrics(
        tracer, pair, csv_bytes, csv_rows, median(traced), median(untraced)
    )
    scale = 0.05 if runner.smoke else 1.0
    metrics.update(micro.pool_sweep(runner.seed, int(micro.DEVICES_PER_POINT * scale)))
    metrics.update(micro.baselines(runner.seed, int(micro.CALLS_PER_BASELINE * scale)))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{runner.w.name}.npz")
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, "spans": len(tracer)}
    return metrics, {}, samples


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "devices", "fallbacks", "csv_rows", "spans"):
        return "count"
    if last.endswith(("_ratio", "_frac", "_share")) or name.startswith("trace.self_share."):
        return "ratio"
    if last.startswith("ns_per_device"):
        return "ns"
    if "mb_per_s" in last:
        return "MB/s"
    for unit in ("us", "ms", "s"):
        if last == unit or last.startswith(unit + "_") or last.endswith("_" + unit):
            return unit
    raise ValueError(f"no unit for metric {name}")


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work"
    workdir.mkdir(exist_ok=True)
    runner = Runner(cli, workload, seed, smoke, workdir)
    if trace:
        values, printed, samples = traced_run(runner, seconds)
        units = {k: layer_unit(k) for k in values}
    else:
        values, printed, samples = end_to_end_run(runner, seconds)
        units = END_TO_END_UNITS
    for path in workdir.glob(f"{name}-*"):
        path.unlink()

    def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
        # a metric that could not be measured (every invocation failed) is null
        return {
            k: {"value": values[k] if math.isfinite(values[k]) else None, "unit": units[k]}
            for k in values
        }

    metrics = with_units(values, units)
    return {
        "workload": name,
        "correct": runner.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "metrics": metrics,
        "printed": with_units(printed, PRINTED_UNITS),
        "samples": samples,
    }


def report(result: dict, args, env: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    attempted, failed = result["attempted"], result["failed"]
    rows = {**result["metrics"], **result["printed"]}
    if not args.trace:
        n = f"median of {result['samples']['invocations']} invocations"
        for key in ("wall_norm", "wall_s", "reference_s"):
            rows[key] = dict(rows[key], note=n)
        rows["setup_s"] = dict(rows["setup_s"], note=f"median of {len(result['samples']['setup_s'])}")
    rows["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                           "note": f"{failed} of {attempted} invocations"}
    for key, m in rows.items():
        note = f"  ({m['note']})" if "note" in m else ""
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {key:<48} {value:>14} {m['unit']}{note}")
    with open(OUT / f"result-{name}-trace{int(args.trace)}.json", "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "env": env, **result}, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in a few seconds")
    args = parser.parse_args(argv)
    try:
        cli = import_rachsim()
        env = environment()
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_env"))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [
            run_workload(cli, name, args.seed, args.seconds, bool(args.trace), args.smoke)
            for name in names
        ]
        for result in results:
            report(result, args, env)
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
