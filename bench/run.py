"""Cold-job benchmark of the catalan-sset checker.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every job is a fresh interpreter,
as a user starts one: the CLI itself for ``census`` and ``theorem-suite``,
``bench/job.py`` for ``model-squares`` and for the traced jobs.  One
process (this one) runs the jobs one after another; a pass is one run over
the workload's jobs, in an order drawn from the seed, which also sets each
job's ``PYTHONHASHSEED``.  Passes repeat until the next one would overrun
``--seconds``.  Every job's output is checked against references computed
here, not by the package, and against the recorded sha256 of the CLI's
stdout (``digests.json``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced passes.  With ``--trace 1`` an untraced pass of the workload
alternates with a traced pass of every workload, and the line reports the
per-layer metrics of the traced passes (see README.md).  The line before
it holds the details: every pass, failures, and the environment the run
saw.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import layer_totals  # noqa: E402

RUN_DEADLINE_S = 150.0  # a run stops starting jobs here and kills a job still running
SETUP_REPEATS = 7

THEOREM_SUITE = {"or2": 2, "and2": 1, "chain3-max": 3, "chain3-min": 1, "sigma-or2": 1}
MONAD_SUITE = {"sigma-or2": 2, "chain2-discrete": 2, "trivial": 1}


# -- references the package does not supply --------------------------------------


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def motzkin(n_max: int) -> list[int]:
    """M(0..n_max) by M(n) = M(n-1) + sum_k M(k) M(n-2-k)."""
    out: list[int] = []
    for n in range(n_max + 1):
        if n < 2:
            out.append(1)
        else:
            out.append(out[n - 1] + sum(out[k] * out[n - 2 - k] for k in range(n - 1)))
    return out


def monotone_maps(m: int, n: int) -> int:
    """Number of monotone maps [m] -> [n]."""
    return math.comb(m + n + 1, m + 1)


def model_squares_reference(levels: int, sandwich: int) -> dict:
    """The counts the model-squares job must report."""
    top = max(levels, sandwich)
    near = range(sandwich + 1)
    return {
        "roundtrips": sum(catalan(n + 1) for n in range(top + 1)),
        "roundtrip_violations": 0,
        "square_ideals": [catalan(n + 1) for n in range(levels + 1)],
        "squares": sum(
            monotone_maps(m, n) * catalan(n + 1)
            for m in range(levels + 1)
            for n in range(levels + 1)
        ),
        "square_violations": 0,
        "adjoint_laws": 2 * sum(monotone_maps(m, n) for m in near for n in near),
        "adjoint_violations": 0,
        "sandwiches": sum(monotone_maps(m, n) * catalan(n + 1) for m in near for n in near),
        "sandwich_violations": 0,
    }


# -- jobs and their checks -----------------------------------------------------


@dataclass(frozen=True)
class Job:
    key: str  # names the job in metrics and details
    argv: tuple[str, ...]  # untraced command, after the interpreter
    traced_argv: tuple[str, ...]
    check: Callable[[str], list[str]]  # the job's stdout -> problems found
    traced_wraps_stdout: bool  # the traced job reports the CLI's stdout inside its JSON


def _digest_problems(key: str, text: str, digests: dict) -> list[str]:
    want = digests.get(key)
    got = hashlib.sha256(text.encode()).hexdigest()
    if want is None:
        return [f"no recorded stdout digest for {key!r}"]
    return [] if got == want else [f"stdout sha256 {got[:12]} differs from recorded {want[:12]}"]


def _count_problems(text: str, max_n: int) -> list[str]:
    lines = text.splitlines()
    motz = motzkin(max_n)
    want = [
        [str(n), *[str(catalan(n + 1))] * 3, str(motz[n]), str(motz[n]), "ok"]
        for n in range(max_n + 1)
    ]
    got = [line.split() for line in lines[1:]]
    if got == want:
        return []
    bad = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w), len(want))
    return [f"count table differs from the references at row {bad}"]


def _verdict_problems(text: str, name: str, expected: int) -> list[str]:
    try:
        doc = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    got = (doc.get("input"), doc.get("maps"), doc.get("structures"), doc.get("verdict"), doc.get("failures"))
    want = (name, expected, expected, "OK", [])
    return [] if got == want else [f"report (input, maps, structures, verdict, failures) = {got}, expected {want}"]


def _model_squares_problems(text: str, levels: int, sandwich: int) -> list[str]:
    try:
        got = json.loads(text.splitlines()[-1])["result"]
    except (ValueError, IndexError, KeyError, TypeError):
        return ["no model-squares result"]
    want = model_squares_reference(levels, sandwich)
    return [f"{k} = {got.get(k)!r}, expected {v!r}" for k, v in want.items() if got.get(k) != v]


def cli_job(key: str, check: Callable[[str], list[str]], digests: dict) -> Job:
    args = tuple(key.split())
    return Job(
        key,
        ("-m", "catalan_sset.cli", *args),
        (str(BENCH / "job.py"), "traced-cli", *args),
        lambda text: _digest_problems(key, text, digests) + check(text),
        True,
    )


def make_workloads(
    census_max_n: int = 10,
    theorem_suite: dict = THEOREM_SUITE,
    monad_suite: dict = MONAD_SUITE,
    model_levels: int = 5,
    sandwich: int = 4,
    digests: dict | None = None,
) -> dict[str, dict]:
    """Each workload: its jobs, and the inputs its set-up process loads."""
    if digests is None:
        digests = json.loads((BENCH / "digests.json").read_text())

    def verdict(verb: str, name: str, n: int) -> Job:
        return cli_job(f"{verb} --input {name} --format json", lambda t: _verdict_problems(t, name, n), digests)

    squares_args = ("model-squares", "--levels", str(model_levels), "--sandwich", str(sandwich))
    return {
        "census": {
            "jobs": [cli_job(f"count --max-n {census_max_n}", lambda t: _count_problems(t, census_max_n), digests)],
            "inputs": [],
        },
        "theorem-suite": {
            "jobs": [verdict("verify-theorem", k, v) for k, v in theorem_suite.items()]
            + [verdict("verify-monads", k, v) for k, v in monad_suite.items()],
            "inputs": sorted(set(theorem_suite) | set(monad_suite)),
        },
        "model-squares": {
            "jobs": [
                Job(
                    " ".join(squares_args),
                    (str(BENCH / "job.py"), *squares_args),
                    (str(BENCH / "job.py"), *squares_args, "--trace"),
                    lambda t: _model_squares_problems(t, model_levels, sandwich),
                    False,
                )
            ],
            "inputs": [],
        },
    }


# -- cold processes ------------------------------------------------------------


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_process(argv: tuple[str, ...], env: dict, timeout: float) -> Proc:
    """Run the interpreter on argv in ROOT; wall time, exit code and ru_maxrss."""
    out: dict[str, bytes] = {}
    killed = threading.Event()

    def drain(name, stream):
        out[name] = stream.read()
        stream.close()

    def kill():
        killed.set()
        proc.kill()

    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(max(timeout, 0.0), kill)
    killer.start()
    try:
        # wait4 rather than Popen.wait: it also returns the child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return Proc(
        proc.returncode,
        out["out"].decode(errors="replace"),
        out["err"].decode(errors="replace"),
        wall,
        usage.ru_maxrss,
        killed.is_set(),
    )


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def job_outcome(job: Job, p: Proc, traced: bool) -> tuple[list[str], list[dict]]:
    """Why the job failed (empty when it passed), and a traced job's spans."""
    if p.timed_out:
        return ["killed at the run deadline"], []
    problems = []
    if p.code != 0:
        problems.append(f"exit code {p.code}")
    if "Traceback" in p.stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems, []
    if not traced:
        return job.check(p.stdout), []
    try:
        doc = json.loads(p.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return ["traced job printed no result"], []
    text = p.stdout
    if job.traced_wraps_stdout:
        if doc["exit"] != 0:
            problems.append(f"traced CLI call returned {doc['exit']}")
        pieces = dict(doc["pieces"])
        if pieces.pop("naturality_failures", 0):
            problems.append("the naturality replay failed")
        if len(set(pieces.values())) > 1:
            problems.append(f"map counts of the traced pieces disagree: {pieces}")
        text = doc["stdout"]
    problems += job.check(text)
    return problems, ([] if problems else doc["spans"])


# -- passes and metrics --------------------------------------------------------


@dataclass
class JobRun:
    key: str
    wall_s: float
    maxrss_kb: int
    problems: list[str]
    spans: list[dict]


def run_pass(jobs: list[Job], order: list[int], seed: int, traced: bool, deadline: float) -> list[JobRun]:
    runs = []
    for i in order:
        job = jobs[i]
        remaining = deadline - perf_counter()
        if remaining <= 0:
            runs.append(JobRun(job.key, 0.0, 0, ["not started before the run deadline"], []))
            continue
        p = run_process(job.traced_argv if traced else job.argv, child_env(seed), remaining)
        problems, spans = job_outcome(job, p, traced)
        runs.append(JobRun(job.key, p.wall_s, p.maxrss_kb, problems, spans))
    return runs


def measure_setup(inputs: list[str], seed: int, deadline: float) -> list[float]:
    """Cold import plus input loading and validation; the first, which also
    writes the bytecode cache, is not kept."""
    argv = (str(BENCH / "job.py"), "setup", *inputs)
    walls = []
    for _ in range(SETUP_REPEATS + 1):
        p = run_process(argv, child_env(seed), deadline - perf_counter())
        if p.code != 0 or p.timed_out:
            raise RuntimeError(f"set-up process failed ({p.code}):\n{p.stderr.strip()}")
        walls.append(p.wall_s)
    return walls[1:]


REMAINDER = {
    "census": "cli.count.remainder_s",
    "theorem-suite": "cli.verify.remainder_s",
    "model-squares": "model_squares.remainder_s",
}
SPAN_NAMES = (
    "catalan.enumerate_level",
    "catalan.nondegenerate_level",
    "tamari.dyck_crosscheck",
    "delta.all_maps",
    "catalan.act",
    "models.ideal_pullback",
    "models.relation_pullback",
    "models.compose_ideals",
    "models.roundtrip",
    "models.enumerate_square_ideals",
    "inputs.resolve_input",
    "bicats.validate",
    "nerve.level",
    "sset.enumerate_truncated_maps",
    "sset.naturality_failures",
    "classify.direct_classification",
    "classify.structures",
    "classify.verify_theorem",
    "classify.verify_monad_remark",
)
COUNT_NAMES = (
    "catalan.enumerate_level.simplices",
    "catalan.nondegenerate_level.tested",
    "catalan.nondegenerate_level.found",
    "delta.all_maps.maps",
    "catalan.act.calls",
    "models.ideal_pullback.calls",
    "models.relation_pullback.calls",
    "models.compose_ideals.calls",
    "models.enumerate_square_ideals.candidates",
    "models.enumerate_square_ideals.accepted",
    "nerve.simplices",
    "sset.maps",
    "sset.rejections",
)
YIELDS = {
    "catalan.nondegenerate_level.yield": ("catalan.nondegenerate_level.found", "catalan.nondegenerate_level.tested"),
    "models.enumerate_square_ideals.yield": (
        "models.enumerate_square_ideals.accepted",
        "models.enumerate_square_ideals.candidates",
    ),
}
PER_JOB_COUNTS = ("nerve.simplices", "sset.maps", "sset.rejections")
_SHARED_SUITE_SPANS = (
    "inputs.resolve_input",
    "bicats.validate",
    "nerve.level",
    "sset.enumerate_truncated_maps",
    "sset.naturality_failures",
    "classify.structures",
)


def suite_job_tag(key: str) -> str:
    """``verify-theorem --input or2 ...`` -> ``vt-or2``; ``verify-monads`` -> ``vm-``."""
    verb, _, name = key.split()[:3]
    return {"verify-theorem": "vt", "verify-monads": "vm"}[verb] + "-" + name


def _per_job(tag: str) -> list[tuple[str, str, str]]:
    """(metric, unit, span or count name) broken out for one theorem-suite job."""
    if tag.startswith("vt-"):
        own = ("classify.direct_classification", "classify.verify_theorem")
    else:
        own = ("classify.verify_monad_remark",)
    return [(f"{s}.self_s.{tag}", "s", s) for s in (*_SHARED_SUITE_SPANS, *own)] + [
        (f"{c}.{tag}", "count", c) for c in PER_JOB_COUNTS
    ]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [(f"{s}.self_s", "s") for s in SPAN_NAMES]
    out += [(c, "count") for c in COUNT_NAMES]
    out += [(y, "ratio") for y in YIELDS]
    out += [(r, "s") for r in REMAINDER.values()]
    out.append(("trace_overhead_s", "s"))
    tags = [f"vt-{k}" for k in THEOREM_SUITE] + [f"vm-{k}" for k in MONAD_SUITE]
    return out + [(name, unit) for tag in tags for name, unit, _ in _per_job(tag)]


def traced_round_metrics(passes: dict[str, list[JobRun]]) -> dict[str, float]:
    """Per-layer values of one traced pass of each workload.  No span or count
    name is shared between workloads; a failed job's spans read 0."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit in per_layer_metrics()}
    for workload, runs in passes.items():
        seconds, counts = layer_totals([s for r in runs for s in r.spans])
        for name, sec in seconds.items():
            values[f"{name}.self_s"] = sec
        values.update(counts)
        values[REMAINDER[workload]] = sum(r.wall_s for r in runs) - sum(seconds.values())
        if workload == "theorem-suite":
            for r in runs:
                job_seconds, job_counts = layer_totals(r.spans)
                for name, unit, base in _per_job(suite_job_tag(r.key)):
                    values[name] = (job_seconds if unit == "s" else job_counts).get(base, 0)
    for y, (num, den) in YIELDS.items():
        values[y] = values[num] / values[den] if values[den] else 0.0
    return values


def job_balance(runs: list[JobRun]) -> list[dict]:
    """Per traced job: wall time = summed span self time + remainder."""
    out = []
    for r in runs:
        seconds, _ = layer_totals(r.spans)
        own = sum(seconds.values())
        out.append({"job": r.key, "wall_s": r.wall_s, "self_s": own, "remainder_s": r.wall_s - own})
    return out


def high_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    k = len(values) - 10
    if k < 1:
        return None
    return {"percentile": round(100 * k / len(values), 2), "value": sorted(values)[k - 1]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_1min() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def run(workload: str, seed: int, seconds: float, trace: bool, workloads: dict | None = None) -> dict:
    """One benchmark run; returns the result line and the details.

    A traced run alternates an untraced pass of ``workload`` with a traced
    pass of every workload, so that it measures every per-layer metric."""
    workloads = workloads or make_workloads()
    spec = workloads[workload]
    jobs: list[Job] = spec["jobs"]
    env_record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_1min_start": load_1min(),
        "seed": seed,
    }
    deadline = perf_counter() + RUN_DEADLINE_S
    rng = random.Random(seed)
    setup = measure_setup(spec["inputs"], seed, deadline)

    start = perf_counter()
    untraced: list[list[JobRun]] = []
    traced: list[dict[str, list[JobRun]]] = []

    def shuffled(js: list[Job]) -> list[int]:
        return rng.sample(range(len(js)), len(js))

    while True:
        step = perf_counter()
        untraced.append(run_pass(jobs, shuffled(jobs), seed, False, deadline))
        if trace:
            traced.append({
                name: run_pass(w["jobs"], shuffled(w["jobs"]), seed, True, deadline)
                for name, w in workloads.items()
            })
        now = perf_counter()
        if now - start + (now - step) > seconds or now >= deadline:
            break

    all_runs = [r for p in untraced + [p for t in traced for p in t.values()] for r in p]
    failures = [{"job": r.key, "problems": r.problems} for r in all_runs if r.problems]
    pass_walls = [sum(r.wall_s for r in p) for p in untraced]
    wall = statistics.median(pass_walls)
    details = {
        "workload": workload,
        "trace": trace,
        "passes": len(untraced),
        "pass_wall_s": pass_walls,
        "wall_s_high": high_percentile(pass_walls),
        "setup_s": setup,
        "fail_ratio": len(failures) / len(all_runs),
        "failures": failures[:10],
    }
    if trace:
        per_round = [traced_round_metrics(t) for t in traced]
        traced_walls = [sum(r.wall_s for r in t[workload]) for t in traced]
        middle = {"count": statistics.median_low}  # a count stays whole
        metrics = {
            name: {"value": middle.get(unit, statistics.median)([v[name] for v in per_round]), "unit": unit}
            for name, unit in per_layer_metrics()
        }
        metrics["trace_overhead_s"]["value"] = statistics.median(traced_walls) - wall
        details["traced_pass_wall_s"] = traced_walls
        details["job_balance"] = job_balance([r for p in traced[-1].values() for r in p])
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(max(r.maxrss_kb for r in p) / 1024 for p in untraced),
                "unit": "MB",
            },
        }
    env_record["load_1min_end"] = load_1min()
    details["env"] = env_record
    result = {
        "correct": not failures,
        "attempted": len(all_runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"details": details, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads(digests={})))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catalan_sset" / "__init__.py").is_file():
        print(f"error: no catalan_sset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
