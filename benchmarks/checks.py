"""Output checks for the benchmark workloads.

Each check reads the CSV text a CLI invocation wrote and returns a list of
problems (empty when the output is correct) plus the amount of work the
output records: device-attempts for the simulation workloads (the sum of
true_load over frames, replications and controllers), swept load points
for the table workload. The checks use only the stdlib and recompute the
analytic model here, so a broken library function cannot pass its own check.
"""

from __future__ import annotations

import csv
import io
import math
import random

RUN_HEADER = [
    "rep", "frame", "controller", "n_s", "arrivals", "contenders", "successes",
    "collided_devices", "idle", "est_load", "true_load", "throughput_sim",
    "throughput_num", "utility_sim", "utility_num",
]
COMPARE_HEADER = [
    "controller", "frame", "arrivals", "n_s", "contenders", "true_load",
    "est_load", "successes", "utility_sim", "utility_num", "ci95_utility_sim",
]

# Controllers that bar devices have successes well below eta(true_load),
# because true_load counts devices before barring.
BARRING_CONTROLLERS = {"acb"}

# Realized successes sit below the analytic eta(N) = N exp(-N / pairs) by the
# finite-pool bias, E[successes | N] = N (1 - 1/pairs)^(N - 1), plus sampling
# error. The bias is about 0.5% at moderate load and grows in deep overload,
# where successes are few; the square-root term covers sampling error of a
# total of E successes at four standard deviations.
ETA_REL_TOL = 0.02
ETA_SIGMAS = 4.0

# Sweep rows checked against the brute-force argmax, besides every row
# where the chosen n_s changes.
SWEEP_SAMPLE = 2000


def eta(load: float, n_s: int, n_preambles: int) -> float:
    """Analytic slotted-ALOHA throughput, same float operations as the model."""
    return load * math.exp(-load / (n_s * n_preambles))


def brute_argmax(load: float, alpha: float, n_preambles: int, lo: int, hi: int) -> int:
    """Utility argmax over [lo, hi]; ties go to the smaller count."""
    best_n, best_u = lo, -math.inf
    for n_s in range(lo, hi + 1):
        u = eta(load, n_s, n_preambles) - alpha * n_s
        if u > best_u:
            best_n, best_u = n_s, u
    return best_n


def eta_tolerance(expected: float) -> float:
    """Allowed |realized - analytic| for a total of `expected` successes."""
    return ETA_REL_TOL * expected + ETA_SIGMAS * math.sqrt(expected)


def _rows(text: str, header: list[str], problems: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        problems.append(f"header is {rows[0] if rows else None}, expected {header}")
        return []
    return rows[1:]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_run(
    text: str, reps: int, frames: int, alpha: float, n_preambles: int
) -> tuple[list[str], float]:
    """Check a `run` CSV: layout, per-row conservation, analytic columns."""
    problems: list[str] = []
    rows = _rows(text, RUN_HEADER, problems)
    if not rows:
        return problems or ["no rows"], 0.0
    if len(rows) != reps * frames + frames:
        problems.append(f"{len(rows)} rows, expected {reps} x {frames} + {frames}")
        return problems, 0.0
    col = {name: i for i, name in enumerate(RUN_HEADER)}
    controllers = {r[col["controller"]] for r in rows}
    realized = analytic = attempts = 0.0
    sums = [0.0] * frames
    for i, r in enumerate(rows[: reps * frames]):
        where = f"row {i + 2}"
        try:
            rep, frame = int(r[col["rep"]]), int(r[col["frame"]])
            n_s = int(r[col["n_s"]])
            contenders = int(r[col["contenders"]])
            successes = int(r[col["successes"]])
            collided = int(r[col["collided_devices"]])
            idle = int(r[col["idle"]])
            true_load = int(r[col["true_load"]])
            tp_sim = float(r[col["throughput_sim"]])
            tp_num = float(r[col["throughput_num"]])
            u_sim = float(r[col["utility_sim"]])
            u_num = float(r[col["utility_num"]])
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if (rep, frame) != divmod(i, frames):
            problems.append(f"{where}: rep/frame {rep}/{frame} out of order")
        if successes + collided != contenders:
            problems.append(f"{where}: successes + collided_devices != contenders")
        if successes + idle > n_s * n_preambles:
            problems.append(f"{where}: successes + idle > n_s * {n_preambles}")
        if min(successes, collided, idle) < 0 or contenders > true_load:
            problems.append(f"{where}: impossible counts")
        if tp_sim != successes or not _close(u_sim, successes - alpha * n_s):
            problems.append(f"{where}: realized columns disagree with successes")
        expected = eta(true_load, n_s, n_preambles)
        if not _close(tp_num, expected) or not _close(u_num, expected - alpha * n_s):
            problems.append(f"{where}: analytic columns disagree with eta(true_load)")
        realized += successes
        analytic += expected
        attempts += true_load
        sums[frame] += successes
    for frame, r in enumerate(rows[reps * frames :]):
        if r[col["rep"]] != "mean" or r[col["frame"]] != str(frame):
            problems.append(f"mean row {frame}: bad rep/frame")
        elif not _close(float(r[col["successes"]]), sums[frame] / reps):
            problems.append(f"mean row {frame}: successes mean disagrees with rows")
    if not controllers & BARRING_CONTROLLERS:
        problems += _eta_gap(",".join(sorted(controllers)), realized, analytic)
    return problems, attempts


def check_compare(
    text: str,
    controllers: list[str],
    reps: int,
    frames: int,
    alpha: float,
    n_preambles: int,
) -> tuple[list[str], float]:
    """Check a `compare` CSV: layout, common arrivals, per-controller totals."""
    problems: list[str] = []
    rows = _rows(text, COMPARE_HEADER, problems)
    if len(rows) != len(controllers) * frames:
        problems.append(f"{len(rows)} rows, expected {len(controllers)} x {frames}")
        return problems, 0.0
    col = {name: i for i, name in enumerate(COMPARE_HEADER)}
    attempts = 0.0
    arrivals_of: dict[int, str] = {}
    for k, name in enumerate(controllers):
        realized = analytic = 0.0
        for frame in range(frames):
            r = rows[k * frames + frame]
            where = f"{name} frame {frame}"
            if r[col["controller"]] != name or r[col["frame"]] != str(frame):
                problems.append(f"{where}: out of order")
                continue
            try:
                n_s = float(r[col["n_s"]])
                contenders = float(r[col["contenders"]])
                true_load = float(r[col["true_load"]])
                successes = float(r[col["successes"]])
                u_sim = float(r[col["utility_sim"]])
                u_num = float(r[col["utility_num"]])
            except ValueError as exc:
                problems.append(f"{where}: {exc}")
                continue
            # common random numbers: every controller sees the same arrivals
            if arrivals_of.setdefault(frame, r[col["arrivals"]]) != r[col["arrivals"]]:
                problems.append(f"{where}: arrivals differ across controllers")
            if not 0 <= successes <= contenders <= true_load:
                problems.append(f"{where}: impossible counts")
            if name not in BARRING_CONTROLLERS and not _close(contenders, true_load):
                problems.append(f"{where}: contenders != true_load without barring")
            if not _close(u_sim, successes - alpha * n_s):
                problems.append(f"{where}: utility_sim disagrees with successes")
            # per-frame means are linear, so mean eta = mean utility_num + alpha * mean n_s
            realized += successes * reps
            analytic += (u_num + alpha * n_s) * reps
            attempts += true_load * reps
        if name not in BARRING_CONTROLLERS:
            problems += _eta_gap(name, realized, analytic)
    return problems, attempts


def _eta_gap(name: str, realized: float, analytic: float) -> list[str]:
    if abs(realized - analytic) <= eta_tolerance(analytic):
        return []
    return [
        f"{name}: total successes {realized:.1f} vs analytic eta {analytic:.1f} "
        f"(tolerance {eta_tolerance(analytic):.1f})"
    ]


def check_table(
    thresholds_text: str,
    sweep_text: str,
    alpha: float,
    max_load: float,
    step: float,
    seed: int,
    n_preambles: int = 64,
    n_s_min: int = 2,
    n_s_max: int = 8,
) -> tuple[list[str], float]:
    """Check `table` output against a brute-force argmax on sampled loads."""
    problems: list[str] = []
    entries = _rows(thresholds_text, ["load_threshold", "n_s"], problems)
    sweep = _rows(sweep_text, ["load", "n_s"], problems)
    steps = int(math.floor(max_load / step + 1e-9))
    if len(sweep) != steps + 1:
        problems.append(f"{len(sweep)} sweep rows, expected {steps + 1}")
        return problems, 0.0
    try:
        table = [(float(t), int(n)) for t, n in entries]
        loads = [float(load) for load, _ in sweep]
        chosen = [int(n) for _, n in sweep]
    except ValueError as exc:
        return problems + [str(exc)], 0.0
    if not table or table[0][0] != 0.0:
        problems.append("threshold table must start at load 0")
    for i, load in enumerate(loads):
        if load != i * step:
            problems.append(f"sweep row {i + 2}: load {load} != {i} * {step}")
            break
    changes = [i for i in range(1, len(chosen)) if chosen[i] != chosen[i - 1]]
    picks = set(random.Random(seed).sample(range(len(sweep)), min(SWEEP_SAMPLE, len(sweep))))
    picks.update(changes)
    picks.update(i - 1 for i in changes)
    for i in sorted(picks):
        want = brute_argmax(loads[i], alpha, n_preambles, n_s_min, n_s_max)
        if chosen[i] != want:
            problems.append(f"sweep row {i + 2}: n_s {chosen[i]}, brute-force argmax {want}")
    if [(loads[i], chosen[i]) for i in [0] + changes] != table:
        problems.append("threshold table disagrees with the sweep's argmax changes")
    return problems, float(len(sweep))
