"""esnlab benchmark: three workloads run in-process through ``esnlab.cli.main``.

    python3 bench/run.py --workload census5|pairs|theorem --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a pass sends the workload's
requests one after another, and passes repeat until ``--seconds`` have gone
(at least one pass). Every output is checked against values known without the
code under test. With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it runs the same untraced loop, then one traced pass, and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import theorem_inputs
from theorem_inputs import Op
from tracing import FUNCTIONS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
DERIVED = {
    "search.canonical_yield": "ratio",
    "inverse.analyze_inverse.per_structure": "calls/op",
    "double.classify_double.per_structure": "calls/op",
    "double.vacuous_ratio": "ratio",
    "search.pool_efficiency": "ratio",
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {
    **{f"{fn}.{part}": unit
       for fn in FUNCTIONS for part, unit in (("calls", "count"), ("self_s", "s"))},
    **DERIVED,
}


def _brandt_b2_canonical():
    """Least relabeling of B2 = {0, e11, e12, e21, e22}, e_ij e_kl = δ_jk e_il,
    formatted as the search prints representatives."""
    units = [None, (1, 1), (1, 2), (2, 1), (2, 2)]  # index 0 is the zero

    def mul(a, b):
        x, y = units[a], units[b]
        if x is None or y is None or x[1] != y[0]:
            return 0
        return units.index((x[0], y[1]))

    best = None
    for perm in itertools.permutations(range(5)):
        inv = [perm.index(a) for a in range(5)]
        flat = tuple(perm[mul(inv[a], inv[b])] + 1 for a in range(5) for b in range(5))
        best = flat if best is None or flat < best else best
    rows = [" ".join(map(str, best[5 * a: 5 * a + 5])) for a in range(5)]
    return "5\n" + "\n".join(rows) + "\n"


def _expect_report(pins, claims=None):
    """The search report has the pinned values and the named claims (or, when
    ``claims`` is None, every claim) hold."""
    def check(doc):
        rep = doc["report"]
        named = rep["claims"] if claims is None else {c: rep["claims"][c] for c in claims}
        return all(rep[k] == v for k, v in pins.items()) and all(
            v is True for v in named.values())
    return check


def _search(*argv):
    return ["search", *argv, "--format", "json"]


def census5_ops(seed, workdir):
    # Acceptance criterion 3: single-table backtracking split over a 2-worker pool.
    pins = {"labeled_count": 60, "class_count": 1, "representatives": [_brandt_b2_canonical()]}
    argv = _search("--order", "5", "--class", "inverse", "--noncommutative", "--jobs", "2")
    return {}, [Op("census5", argv, 0, _expect_report(pins))]


def pairs_ops(seed, workdir):
    # Serial pair search: interchange propagation at order 4, canonical_pair at order 3.
    inverse4 = _search("--order", "4", "--class", "inverse", "--pairs", "--jobs", "1")
    all3 = _search("--order", "3", "--pairs", "--jobs", "1")
    return {}, [
        Op("pairs-inverse4", inverse4, 0, _expect_report(
            {"pair_count": 272, "class_count": 16, "proper_pair_count": 0})),
        Op("pairs-all3", all3, 0, _expect_report(
            {"pair_count": 2293, "class_count": 409}, claims=("swap_closed",))),
    ]


def first_of_each_kind(ops):
    return [op.argv for op in {op.kind: op for op in reversed(ops)}.values()]


@dataclass(frozen=True)
class Workload:
    jobs: int  # worker processes the requests ask for
    ops: object  # (seed, workdir) -> ({file name: bytes}, [Op])
    warmup: object  # [Op] -> argv lists run once per set-up, outputs unchecked


WORKLOADS = {
    "census5": Workload(2, census5_ops, lambda ops: [
        _search("--order", "3", "--class", "inverse", "--jobs", "2")]),
    "pairs": Workload(1, pairs_ops, lambda ops: [_search("--order", "2", "--pairs")]),
    "theorem": Workload(1, theorem_inputs.build, first_of_each_kind),
}


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    out_bytes: int = 0
    classes: int = 0  # class_count summed over search reports
    substantive: int = 0  # axiom checks summed over validation reports
    vacuous: int = 0


def cpu_seconds():
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def import_esnlab():
    """Import the program afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "esnlab" or m.startswith("esnlab.")]:
        del sys.modules[name]
    return importlib.import_module("esnlab.cli")


def call(cli, argv):
    """(exit code or None if it raised, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(argv), stream=out)
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue(), err.getvalue()


def outcome(op, code, text, err):
    """(True, parsed output or None) when the op exited and printed as expected."""
    try:
        doc = json.loads(text) if text else None
        ok = code == op.code and bool(op.check(doc))
    except (ValueError, LookupError, TypeError, AttributeError):
        return False, None
    if op.code == 2 and not err.startswith("esnlab: error:"):
        return False, None
    return ok, doc


def run_pass(cli, ops, tracer=None):
    """Send every op once, in order, and check each output."""
    res = Pass()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        code, text, err = call(cli, op.argv)
        res.latencies.append(time.perf_counter() - t0)
        res.attempted += 1
        res.out_bytes += len(text.encode())
        ok, doc = outcome(op, code, text, err)
        if not ok:
            res.failed += 1
            print(f"FAILED {op.kind}: exit {code}, argv {op.argv}", file=sys.stderr)
        elif doc is not None:
            rep = doc.get("report", {})
            res.classes += rep.get("class_count", 0)
            res.substantive += sum(rep.get("substantive", {}).values())
            res.vacuous += sum(rep.get("vacuous", {}).values())
    res.wall = time.perf_counter() - start
    res.cpu = cpu_seconds() - cpu0
    return res


def setup(workload, seed, workdir):
    """Import, generate and write the inputs, warm up. Returns (cli, ops)."""
    cli = import_esnlab()
    files, ops = workload.ops(seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    for argv in workload.warmup(ops):
        call(cli, argv)
    return cli, ops


def closed_loop(cli, ops, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, ops))
    return passes


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_s):
    # Op percentiles are taken within each pass, then the median over passes,
    # so one slow pass cannot move them (on `pairs` the two op sizes are far apart).
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1000.0 * statistics.median(statistics.median(p.latencies) for p in passes),
        "op_p90_ms": 1000.0 * statistics.median(percentile(p.latencies, 90) for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, passes, jobs):
    totals = tracer.totals()
    out = {}
    for fn, (calls, self_s) in totals.items():
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = self_s
    canon_calls = sum(totals[f][0] for f in
                      ("tables.is_canonical", "tables.canonical_form", "search.canonical_pair"))
    checks = traced.substantive + traced.vacuous
    wall = statistics.median(p.wall for p in passes)
    out.update({
        "search.canonical_yield": traced.classes / canon_calls if canon_calls else 0.0,
        "inverse.analyze_inverse.per_structure":
            totals["inverse.analyze_inverse"][0] / traced.attempted,
        "double.classify_double.per_structure":
            totals["double.classify_double"][0] / traced.attempted,
        "double.vacuous_ratio": traced.vacuous / checks if checks else 0.0,
        "search.pool_efficiency": statistics.median(p.cpu for p in passes) / (jobs * wall),
        "cli.out_bytes": traced.out_bytes,
        "trace.overhead_ratio": traced.wall / wall,
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "esnlab" / "__init__.py").is_file():
        print(f"bench: no esnlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".esnbench"
    workdir = out_dir / f"run-{os.getpid()}"
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cli, ops = setup(workload, args.seed, workdir)
            times.append(time.perf_counter() - t0)
        setup_s = statistics.median(times)

        passes = closed_loop(cli, ops, args.seconds)
        runs = list(passes)
        if args.trace:
            tracer = Tracer(workdir / "spans")
            tracer.spool.mkdir()
            tracer.install()
            try:
                traced = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
            tracer.collect()
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            runs.append(traced)
            metrics = per_layer(tracer, traced, passes, workload.jobs)
            units = PER_LAYER
        else:
            metrics = end_to_end(passes, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    print(f"workload {args.workload}, seed {args.seed}, python {platform.python_version()}, "
          f"{os.cpu_count()} cores, jobs {workload.jobs}")
    print(f"passes {len(passes)}, latency samples per pass {len(ops)}, "
          f"failed_ratio {failed / attempted} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
