"""The lobfib benchmark: four seeded workloads, their checks, and their metrics.

Every workload runs in this one process with no worker threads; ``cli_cold``
runs one ``python -m lobfib.cli`` child at a time.  A run measures samples
until its time is up; each sample's outputs are checked after its timer has
stopped, and a failed check is counted, never raised.  See README.md for the
workloads, the metrics and how to run them.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from itertools import count
from pathlib import Path
from time import perf_counter

import lobfib
from lobfib import (
    assemble_fibonacci,
    assemble_lobell,
    bounds_report,
    build_fibonacci_polytope,
    build_lobell_polytope,
    canonical_coloring,
    enumerate_colorings,
    export_triangulation,
    fibonacci_parameters,
    fibonacci_tet_count,
    fibonacci_volume,
    import_triangulation,
    lobachevsky,
    lobell_tet_count,
    lobell_volume,
    lower_bound_from_volume,
    theta,
    triangulate_fibonacci,
    triangulate_lobell,
    verify_closed_manifold,
    verify_triangulation,
)
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"  # temporary files and span dumps, inside the checkout

# Printed by --trace 1 runs, in this order; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "polytope.build_s": "s",
    "coloring.canonical_s": "s",
    "coloring.enumerate_s": "s",
    "coloring.colorings": "count",
    "gluing.assemble_s": "s",
    "gluing.verify_s": "s",
    "gluing.quotient_cells": "count",
    "triangulation.build_s": "s",
    "triangulation.export_s": "s",
    "triangulation.export_bytes": "B",
    "triangulation.import_s": "s",
    "triangulation.verify_s": "s",
    "triangulation.tets": "count",
    "volume.eval_s": "s",
    "volume.evals": "count",
    "bounds.report_s": "s",
    "bounds.lower_s": "s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.work_s": "s",
    "trace.sample_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

EXPECTED_COLORINGS = {5: 240, 6: 480, 7: 1008, 8: 1152}
LAMBDA_TOLERANCE = 1e-11
CLI_TIMEOUT_S = 60


@dataclass
class Sizes:
    """Input sizes; FULL is the benchmark, TINY is for the smoke test."""

    lobell_n: tuple[int, int] = (80, 120)
    fibonacci_n: tuple[int, int] = (1500, 2500)
    census_k: tuple[int, ...] = (5, 6, 7, 8)
    census_rows: int = 12000  # distinct n per census round
    cli_lobell_n: tuple[int, int] = (5, 12)
    cli_fibonacci_n: tuple[int, int] = (4, 16)
    repeats: int = 3  # timed set-ups (trace 0) and CLI probes (trace 1) per run


FULL = Sizes()
TINY = Sizes((5, 5), (4, 4), (5,), 20, (5, 5), (4, 4), 1)


@dataclass
class Outcome:
    """What the checks of one sample found."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


def _failure(attempted: int, exc: BaseException) -> Outcome:
    return Outcome(attempted, attempted, [f"{type(exc).__name__}: {exc}"])


def _lambda_problems(args) -> list[str]:
    """Lambda(x) = Cl_2(2x) / 2, with mpmath's Clausen function as the reference."""
    import mpmath  # the reference is only needed by the checks, not at set-up

    problems = []
    with mpmath.workdps(30):
        for x in args:
            reference = float(mpmath.clsin(2, 2 * mpmath.mpf(x)) / 2)
            value = lobachevsky(x)
            if not abs(value - reference) <= LAMBDA_TOLERANCE:
                problems.append(f"Lambda({x!r}) = {value!r}, Clausen gives {reference!r}")
    return problems


def _lobell_lambda_args(n: int) -> list[float]:
    th, step = theta(n), math.pi / n
    return [th, th + step, th - step, 2.0 * th - math.pi / 2.0]


def _fibonacci_lambda_args(n: int) -> list[float]:
    a, b = fibonacci_parameters(n)
    return [a + b, a - b]


def _spread(lo: int, hi: int, seed: int):
    """n for sample i: lo..hi along a golden-ratio sequence from a seeded
    start, so that any run of consecutive samples covers the range evenly
    and the median n hardly depends on how many samples a run completes."""
    start = random.Random(seed).random()
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return (lo + int((hi - lo + 1) * ((start + i * phi) % 1.0)) for i in count())


# ---------------------------------------------------------------------------
# lobell_pipeline and fibonacci_pipeline
# ---------------------------------------------------------------------------

@dataclass
class Chain:
    n: int
    manifold: object
    tri: object
    text: str
    back: object
    report: object
    volume: object
    bounds: object


def lobell_chain(n: int, tr) -> Chain:
    p = tr.call("polytope.build", build_lobell_polytope, n)
    c = tr.call("coloring.canonical", canonical_coloring, p)
    gc = tr.call("gluing.assemble", assemble_lobell, c)
    manifold = tr.call("gluing.verify", verify_closed_manifold, gc)
    tri = tr.call("triangulation.build", triangulate_lobell, c)
    return _certify("lobell", n, manifold, tri, lobell_volume, tr)


def fibonacci_chain(n: int, tr) -> Chain:
    tr.call("polytope.build", build_fibonacci_polytope, n)
    gc = tr.call("gluing.assemble", assemble_fibonacci, n)
    manifold = tr.call("gluing.verify", verify_closed_manifold, gc)
    tri = tr.call("triangulation.build", triangulate_fibonacci, n)
    return _certify("fibonacci", n, manifold, tri, fibonacci_volume, tr)


def _certify(family, n, manifold, tri, volume_of, tr) -> Chain:
    text = tr.call("triangulation.export", export_triangulation, tri)
    back = tr.call("triangulation.import", import_triangulation, text)
    report = tr.call("triangulation.verify", verify_triangulation, back)
    volume = tr.call("volume.eval", volume_of, n)
    bounds = tr.call("bounds.report", bounds_report, family, n)
    return Chain(n, manifold, tri, text, back, report, volume, bounds)


class Pipeline:
    """One sample is the whole certify chain at one n (README.md)."""

    def __init__(self, name, seed, sizes: Sizes):
        self.name = name
        lobell = name == "lobell_pipeline"
        self.chain = lobell_chain if lobell else fibonacci_chain
        self.tet_count = lobell_tet_count if lobell else fibonacci_tet_count
        self.lambda_args = _lobell_lambda_args if lobell else _fibonacci_lambda_args
        self.smallest = 5 if lobell else 4
        self.n_range = sizes.lobell_n if lobell else sizes.fibonacci_n
        self.seed = seed

    def inputs(self):
        """The same n sequence each time it is called."""
        return _spread(*self.n_range, self.seed)

    def warm_up(self) -> None:
        self.chain(self.smallest, NullTracer())

    def sample(self, n: int, tr) -> Chain:
        return self.chain(n, tr)

    def check(self, n: int, out) -> Outcome:
        if isinstance(out, BaseException):
            return _failure(1, out)
        expected = self.tet_count(n)
        problems = []
        if not out.manifold.ok:
            problems.append(f"n={n}: verify_closed_manifold not ok: {out.manifold.problems[:2]}")
        if not out.report.ok:
            problems.append(f"n={n}: verify_triangulation not ok: {out.report.problems[:2]}")
        if out.tri.tet_count != expected or out.bounds.upper_bound != expected:
            problems.append(f"n={n}: {out.tri.tet_count} tets, upper bound "
                            f"{out.bounds.upper_bound}, formula {expected}")
        if out.back.gluings != out.tri.gluings:
            problems.append(f"n={n}: export/import round trip changed the gluings")
        problems += [f"n={n}: {p}" for p in _lambda_problems(self.lambda_args(n))]
        m = out.manifold
        counts = Counter({
            "triangulation.tets": out.tri.tet_count,
            "triangulation.export_bytes": len(out.text.encode("utf-8")),
            "gluing.quotient_cells": m.quotient_vertices + m.quotient_edges + m.quotient_faces,
            "volume.evals": 1,
        })
        return Outcome(1, int(bool(problems)), problems, counts)

    def summary(self, phase) -> dict:
        return {"certify_tets_per_s": (phase.counts["triangulation.tets"] / sum(phase.walls),
                                       "1/s")}


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

class FreshN:
    """Distinct n >= 5 in a seeded order: an affine permutation modulo a
    prime.  volume._core memoizes Lambda for 200 000 arguments, so a repeated
    n would time a dictionary lookup instead of the evaluation; every n this
    yields is new to the process."""

    PRIME = 999983

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.a, self.b, self.used = rng.randrange(1, self.PRIME), rng.randrange(self.PRIME), 0

    def take(self, k: int) -> list[int]:
        if self.used + k > self.PRIME:
            raise RuntimeError("census ran out of distinct n")
        first, self.used = self.used, self.used + k
        return [5 + (self.a * i + self.b) % self.PRIME for i in range(first, self.used)]


@dataclass
class CensusRound:
    colorings: dict
    rows: list
    enumerate_s: float
    rows_s: float


class Census:
    """One sample enumerates every coloring of R(k) for each k, then takes
    the volume and certified lower bound of both families at fresh n."""

    name = "census"

    def __init__(self, seed, sizes: Sizes):
        self.ks = sizes.census_k
        self.rows = sizes.census_rows
        self.fresh = FreshN(seed)
        self.check_rng = random.Random(seed + 1)

    def inputs(self):
        """Each call continues with n not yet used."""
        while True:
            yield self.fresh.take(self.rows)

    def warm_up(self) -> None:
        self.sample(self.fresh.take(100), NullTracer())

    def sample(self, ns: list[int], tr) -> CensusRound:
        start = perf_counter()
        colorings = {}
        for k in self.ks:
            p = tr.call("polytope.build", build_lobell_polytope, k)
            colorings[k] = tr.call("coloring.enumerate", enumerate_colorings, p)
        middle = perf_counter()
        rows = []
        for n in ns:
            lv = tr.call("volume.eval", lobell_volume, n)
            fv = tr.call("volume.eval", fibonacci_volume, n)
            rows.append((n, lv, tr.call("bounds.lower", lower_bound_from_volume, lv),
                         fv, tr.call("bounds.lower", lower_bound_from_volume, fv)))
        return CensusRound(colorings, rows, middle - start, perf_counter() - middle)

    def check(self, ns: list[int], out) -> Outcome:
        attempted = len(self.ks) + len(ns)
        if isinstance(out, BaseException):
            return _failure(attempted, out)
        import mpmath

        v3 = float(mpmath.clsin(2, mpmath.pi / 3))
        problems = []
        for k, found in out.colorings.items():
            if len(found) != EXPECTED_COLORINGS.get(k):
                problems.append(f"R({k}) has {len(found)} colorings, expected {EXPECTED_COLORINGS.get(k)}")
        for n, *pairs in out.rows:
            for volume, lower in (pairs[:2], pairs[2:]):
                # lower must be the least k with k * v3 > value + error bound
                top = volume.value + volume.error_bound
                slack = 1e-12 * (top + 1.0)
                least = (lower - 1) * v3 <= top + slack and lower * v3 > top - slack
                if not (volume.value > 0 and least):
                    problems.append(f"n={n}: lower bound {lower} for volume {volume.value!r}")
                    break
        for n in self.check_rng.sample(ns, min(2, len(ns))):
            problems += [f"n={n}: {p}" for p in
                         _lambda_problems(_lobell_lambda_args(n) + _fibonacci_lambda_args(n))]
        counts = Counter({
            "coloring.colorings": sum(len(found) for found in out.colorings.values()),
            "volume.evals": 2 * len(out.rows),
            "enumerate_s": out.enumerate_s,
            "rows": len(out.rows),
            "rows_s": out.rows_s,
        })
        return Outcome(attempted, min(len(problems), attempted), problems, counts)

    def summary(self, phase) -> dict:
        c = phase.counts
        return {"colorings_per_s": (c["coloring.colorings"] / c["enumerate_s"], "1/s"),
                "volume_rows_per_s": (c["rows"] / c["rows_s"], "1/s")}


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(Path(__file__).parent)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


@dataclass
class Request:
    argv: tuple
    family: str
    n: int


class CliCold:
    """Closed loop, one client: one fresh ``python -m lobfib.cli`` child per
    request, the next request sent when the previous child has exited."""

    name = "cli_cold"

    def __init__(self, seed, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.env = child_env()
        self.table = str(OUT / "cli-triangulation.json")

    def inputs(self):
        """Cycles of triangulate -> verify -> volume, bounds, color and
        presentation; the same sequence each time it is called."""
        rng = random.Random(self.seed)
        for cycle in count():
            family = "lobell" if cycle % 2 == 0 else "fibonacci"
            lo, hi = self.sizes.cli_lobell_n if family == "lobell" else self.sizes.cli_fibonacci_n
            n, m, k = rng.randint(lo, hi), rng.randint(lo, hi), rng.randint(*self.sizes.cli_lobell_n)
            color = ("--color", "auto") if family == "lobell" else ()
            yield Request(("triangulate", "--family", family, "--n", str(n), *color,
                           "--out", self.table), family, n)
            yield Request(("verify", "--file", self.table), family, n)
            for sub in ("volume", "bounds", "presentation"):
                yield Request((sub, "--family", family, "--n", str(m)), family, m)
            yield Request(("color", "--family", "lobell", "--n", str(k)), "lobell", k)

    def warm_up(self) -> None:
        pass

    def sample(self, req: Request, tr):
        return tr.call("cli.call", self._invoke, req.argv)

    def _invoke(self, argv):
        return subprocess.run([sys.executable, "-m", "lobfib.cli", *argv], capture_output=True,
                              text=True, env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S)

    def check(self, req: Request, out) -> Outcome:
        if isinstance(out, BaseException):
            return _failure(1, out)
        problem = _cli_problem(req, out)
        return Outcome(1, int(problem is not None),
                       [] if problem is None else [f"{' '.join(req.argv)}: {problem}"])

    def summary(self, phase) -> dict:
        walls = phase.walls * 2 if len(phase.walls) == 1 else phase.walls
        _, p50, p75 = statistics.quantiles(walls, n=4, method="inclusive")
        return {"cli_s.p50": (p50, "s"), "cli_s.p75": (p75, "s")}


def _cli_problem(req: Request, out) -> str | None:
    if out.returncode != 0:
        return f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
    sub, lines, n, lobell = req.argv[0], out.stdout.splitlines(), req.n, req.family == "lobell"
    if sub == "triangulate":
        ok = out.stdout == ""  # the table went to --out
    elif sub == "verify":
        tets = lobell_tet_count(n) if lobell else fibonacci_tet_count(n)
        ok = lines[:1] == [f"closed orientable: yes; tetrahedra: {tets}"]
    elif sub == "volume":
        ok = lines[:2] == [f"family: {req.family}", f"n: {n}"]
    elif sub == "bounds":
        ok = [row.split() for row in lines[:2]] == [["family", req.family], ["n", str(n)]]
    elif sub == "color":
        colors = json.loads(out.stdout)
        ok = colors["n"] == n and len(colors["colors"]) == 2 * n + 2
    else:  # presentation: G(n) has 2n + 2 generators, F(2, 2n) has 2n
        ok = len(json.loads(out.stdout)["generators"]) == 2 * n + (2 if lobell else 0)
    return None if ok else f"unexpected output {lines[:2]}"


def make(name: str, seed: int, sizes: Sizes = FULL):
    if name == "census":
        return Census(seed, sizes)
    if name == "cli_cold":
        return CliCold(seed, sizes)
    if name in ("lobell_pipeline", "fibonacci_pipeline"):
        return Pipeline(name, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems[:10 - len(self.problems)]
        self.counts.update(outcome.counts)


def measure(w, budget_s: float, tr) -> Phase:
    """Samples in a closed loop until the budget is spent; a sample is not
    started when the previous one says it would overrun.  At least one."""
    phase = Phase()
    start = perf_counter()
    for i, inp in enumerate(w.inputs()):
        if phase.walls and perf_counter() - start + phase.walls[-1] > budget_s:
            break
        tr.sample = i
        t0 = perf_counter()
        try:
            out = tr.call(w.name + ".sample", w.sample, inp, tr)
        except Exception as exc:  # counted as failed; the run goes on
            out = exc
        phase.walls.append(perf_counter() - t0)
        try:
            phase.add(w.check(inp, out))
        except Exception as exc:
            phase.add(_failure(1, exc))
        del out  # frees the outputs here, not inside the next sample's timer
    return phase


def _child_wall(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CLI_TIMEOUT_S, check=True)
    return perf_counter() - t0, done


SETUP_CODE = "import sys, bench; next(bench.make(sys.argv[1], int(sys.argv[2])).inputs())"


def setup_times(name: str, seed: int, repeats: int) -> list[float]:
    """Fresh interpreters that import lobfib and generate the inputs."""
    env = child_env()
    argv = [sys.executable, "-c", SETUP_CODE, name, str(seed)]
    return [_child_wall(argv, env)[0] for _ in range(repeats)]


def import_seconds(importtime: str) -> tuple[float, float]:
    """(lobfib, scipy) cumulative import time from ``-X importtime`` output.
    scipy counts every scipy* module that no other scipy* module imported."""
    lobfib_us, pending = 0, []  # pending: (depth, is_scipy, cumulative, scipy below)
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, tree = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header
        name = tree.strip()
        depth = (len(tree) - len(tree.lstrip()) - 1) // 2
        below = 0
        while pending and pending[-1][0] > depth:
            _, is_scipy, cum, inner = pending.pop()
            below += cum if is_scipy else inner
        is_scipy = name == "scipy" or name.startswith("scipy.")
        pending.append((depth, is_scipy, int(cumulative), below))
        if name == "lobfib":
            lobfib_us = int(cumulative)
    scipy_us = sum(cum if is_scipy else inner for _, is_scipy, cum, inner in pending)
    return lobfib_us / 1e6, scipy_us / 1e6


def cli_probes(repeats: int) -> dict[str, float]:
    env = child_env()
    interp = [_child_wall([sys.executable, "-c", "pass"], env)[0] for _ in range(repeats)]
    imports = [import_seconds(_child_wall([sys.executable, "-X", "importtime", "-c",
                                           "import lobfib"], env)[1].stderr)
               for _ in range(repeats)]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(t[0] for t in imports),
        "cli.import_scipy_s": statistics.median(t[1] for t in imports),
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine_context(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "lobfib": lobfib.__version__,
        "commit": commit,
        "seed": seed,
    }


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    context: dict
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict  # name -> (value, unit), the metrics of the final JSON line
    notes: dict  # name -> (value, unit, samples), printed before it


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> Result:
    w = make(name, seed, sizes)
    context = machine_context(seed)
    OUT.mkdir(exist_ok=True)
    try:
        w.warm_up()
    except Exception:
        pass  # the measured samples meet the same failure and count it
    if not trace:
        setup = setup_times(name, seed, sizes.repeats)
        phase = measure(w, seconds, NullTracer())
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb(name), "MB"),
            "chain_s.p50": (statistics.median(phase.walls), "s"),
        }
        phases = [phase]
        notes = {key: (*value, len(phase.walls)) for key, value in w.summary(phase).items()}
    else:
        start = perf_counter()
        probes = cli_probes(sizes.repeats)
        half = max(0.0, seconds - (perf_counter() - start)) / 2
        plain = measure(w, half, NullTracer())
        tr = Tracer()
        phase = measure(w, half, tr)
        phases = [plain, phase]
        k = len(phase.walls)
        layers = tr.self_times()
        # span "gluing.verify" gives metric "gluing.verify_s"; counts come from the checks
        metrics = {m: ((layers.get(m.removesuffix("_s"), 0.0) if unit == "s" else phase.counts[m]) / k,
                       unit) for m, unit in LAYER_METRICS.items()}
        metrics.update({m: (v, "s") for m, v in probes.items()})
        calls = [end - start for span, start, end, _, _ in tr.spans if span == "cli.call"]
        if calls:
            metrics["cli.work_s"] = (statistics.fmean(calls) - probes["cli.interp_s"]
                                     - probes["cli.import_s"], "s")
        paired = min(len(plain.walls), k)
        metrics["trace.sample_s"] = (statistics.fmean(phase.walls), "s")
        metrics["trace.unattributed_s"] = (layers.get(name + ".sample", 0.0) / k, "s")
        metrics["trace.overhead_s"] = (
            (sum(phase.walls[:paired]) - sum(plain.walls[:paired])) / paired, "s")
        notes = {"untraced_sample_s": (statistics.fmean(plain.walls), "s", len(plain.walls)),
                 "traced_sample_s": (metrics["trace.sample_s"][0], "s", k)}
        tr.write(OUT / f"trace-{name}.json", context)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    notes["fail_ratio"] = (failed / attempted, "1", attempted)
    return Result(name, seed, trace, context, attempted, failed,
                  [q for p in phases for q in p.problems], metrics, notes)


def report(result: Result, stream=None) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    stream = stream or sys.stdout
    print(f"# workload {result.workload} seed {result.seed} trace {int(result.trace)}", file=stream)
    print("# context " + json.dumps(result.context, sort_keys=True), file=stream)
    for name, (value, unit, samples) in result.notes.items():
        print(f"metric {name} {value!r} {unit} samples={samples}", file=stream)
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value!r} {unit}", file=stream)
    for problem in result.problems[:10]:
        print(f"problem {problem}", file=stream)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), file=stream)
