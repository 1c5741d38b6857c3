"""Benchmark for ramcat: time to a checked verdict, end to end and per layer.

    python3 perfbench/run.py --workload scan|construct|laws [--seed 1729]
                             [--seconds 40] [--trace 0|1]

Run from the root of a source checkout; the package is imported from ./src.
`--seed` is the sampling seed handed to every sampled check.

--trace 0 measures the end-to-end metrics with no tracing.  It makes passes
over the instance list for `--seconds`, starting no pass that the last one's
length says would end after that.  Before each pass it sets up SETUPS times
(import the package afresh, build the workload) and runs the pass on the
last set-up.  Each set-up and each instance call is timed by `pace.Pace`, in
paced seconds: its length in runs of a reference kernel sampled on the same
CPU during the call, times the kernel's time on the measuring machine's fast
state, so that the shared host's swings in speed cancel.  `setup_s` is the
median set-up and `wall_s` the sum over the instances of each one's median
call.  The clock seconds (`clock_s`, the sum of median call times) are
printed for reading but not reported, being too much at the host's mercy.

--trace 1 sets up once, then makes a traced pass, an untraced pass and a
second traced pass, each timed whole by `pace.Pace`.  The per-layer metrics
come from the second traced pass, its self times scaled from clock to paced
seconds by the pass's own ratio of the two; the tracing overhead is its paced
time minus the untraced pass's.  Exact counts must agree between the two
traced passes, or the run is marked incorrect.
The spans and counters are written to perfbench/out/trace-<workload>.json.

Every pass is judged against the oracle; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` (instances whose outcome
was wrong) and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3               # set-ups before each pass

sys.path.insert(0, str(HERE))

from pace import Pace                                            # noqa: E402
from tracer import Tracer                                        # noqa: E402
from workloads import WORKLOADS, judge_pass, load_library, run_pass  # noqa: E402

# counts that must repeat exactly between the two traced passes
EXACT = ("engine.colorings", "engine.cells", "engine.checks",
         "core.laws_checked", "categories.hom_calls", "certificates.bytes")

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "decided_share": "share"}


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.bearing = self.decided = 0
        self.errors: list[str] = []

    def add(self, outcomes) -> None:
        """Count a judged pass."""
        for out in outcomes:
            self.attempted += 1
            self.failed += out.failed
            self.errors += [f"{out.name}: {e}" for e in out.errors]
            self.bearing += out.verdict_bearing
            self.decided += out.decided and not out.failed


def timed_pass(workload, pace: Pace) -> tuple[float, float, list]:
    """One pass over the instances: clock seconds, paced seconds, results."""
    raw: list = []
    clock, paced = pace.time(lambda: raw.extend(run_pass(workload.instances)))
    return clock, paced, raw


def layer_metrics(tr: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; self times are scaled from clock to paced seconds."""
    size = lambda key: tr.sizes.get(key, 0)
    secs = lambda name: tr.self_s(name) * scale
    hom_calls = tr.calls("categories.hom")
    check_s = secs("engine.check")
    return {
        "categories.hom_s": (secs("categories.hom"), "s"),
        "categories.hom_calls": (hom_calls, "count"),
        "categories.hom_arrows": (size("hom_arrows"), "count"),
        "categories.hom_empty_share": (
            size("hom_empty") / hom_calls if hom_calls else 0.0, "share"),
        "categories.compose_s": (secs("categories.compose"), "s"),
        "categories.compose_calls": (tr.calls("categories.compose"), "count"),
        "categories.morph_s": (secs("categories.morph"), "s"),
        "categories.morph_calls": (tr.calls("categories.morph"), "count"),
        "engine.check_s": (check_s, "s"),
        "engine.colorings": (size("colorings"), "count"),
        "engine.colorings_per_s": (
            size("colorings") / check_s if check_s else 0.0, "1/s"),
        "engine.cells": (size("cells"), "count"),
        "engine.checks": (size("checks"), "count"),
        "engine.check_calls": (tr.calls("engine.check"), "count"),
        "engine.refusals": (size("refusals"), "count"),
        "core.laws_s": (secs("core.laws"), "s"),
        "core.laws_checked": (size("laws_checked"), "count"),
        "core.frank_s": (secs("core.frank"), "s"),
        "core.frank_calls": (tr.calls("core.frank"), "count"),
        "constructions.build_s": (secs("constructions.build"), "s"),
        "constructions.stages": (size("stages"), "count"),
        "certificates.fingerprint_s": (
            secs("certificates.fingerprint"), "s"),
        "certificates.build_s": (secs("certificates.build"), "s"),
        "certificates.replay_s": (secs("certificates.replay"), "s"),
        "certificates.bytes": (size("cert_bytes"), "count"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.main_calls": (tr.calls("cli.main"), "count"),
    }


def set_up(args, tmp: Path):
    lib = load_library(SRC)
    return lib, WORKLOADS[args.workload](lib, args.seed, tmp)


def measure(args, tmp: Path, tally: Tally) -> dict:
    setups: list[float] = []
    clocks: list[list[float]] = []
    walls: list[list[float]] = []
    pace = Pace()
    start = perf_counter()
    while True:
        began = perf_counter()
        for _ in range(SETUPS):
            built: list = []
            setups.append(pace.time(
                lambda: built.append(set_up(args, tmp)))[1])
        _, workload = built[0]
        instances = workload.instances
        clocks = clocks or [[] for _ in instances]
        walls = walls or [[] for _ in instances]
        raw: list = []
        for k, instance in enumerate(instances):
            gc.collect()        # every call starts from the same heap state
            clock, paced = pace.time(
                lambda: raw.extend(run_pass([instance])))
            clocks[k].append(clock)
            walls[k].append(paced)
        tally.add(judge_pass(raw))
        now = perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    print(f"passes: {len(walls[0])}; clock_s "
          f"{sum(statistics.median(c) for c in clocks):.4f} s")
    return {
        "wall_s": sum(statistics.median(w) for w in walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": tally.decided / tally.bearing,
    }


def traced(lib, workload, name: str, tally: Tally) -> tuple[dict, bool]:
    pace = Pace()
    tracers, walls, scales = [], [], []
    for _ in range(2):
        if tracers:
            # between the traced passes, so neither side is the cold one
            _, untraced, raw = timed_pass(workload, pace)
            tally.add(judge_pass(raw))
        tr = Tracer()
        restore = tr.install(lib)
        try:
            clock, wall, raw = timed_pass(workload, pace)
        finally:
            restore()
        # judged untraced: the oracle's own hom and compose calls stay out
        tally.add(judge_pass(raw))
        tracers.append(tr)
        walls.append(wall)
        scales.append(wall / clock)
    first, second = (layer_metrics(t, k) for t, k in zip(tracers, scales))
    repeats = True
    for key in EXACT:
        if first[key][0] != second[key][0]:
            repeats = False
            tally.errors.append(f"{key} differs between traced passes: "
                                f"{first[key][0]} vs {second[key][0]}")
    metrics = dict(second)
    metrics["trace.wall_s"] = (walls[1], "s")
    metrics["trace.overhead_s"] = (walls[1] - untraced, "s")
    metrics["trace.spans"] = (len(tracers[1].spans), "count")
    tracers[1].write(OUT / f"trace-{name}.json",
                     {"workload": name, "untraced_wall_s": untraced,
                      "traced_wall_s": walls[1],
                      "paced_per_clock_s": scales[1]})
    return metrics, repeats


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ramcat" / "__init__.py").is_file():
        print(f"no ramcat package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            lib, workload = set_up(args, Path(tmp))
            metrics, repeats = traced(lib, workload, args.workload, tally)
        else:
            values = measure(args, Path(tmp), tally)
            metrics = {k: (v, UNITS[k]) for k, v in values.items()}
            repeats = True

    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:.6g} {unit}")
    print(f"instances: {tally.attempted} attempted, {tally.failed} failed "
          f"(error_share {tally.failed / tally.attempted:.4g})")
    for line in tally.errors:
        print(f"ERROR {line}")
    print(json.dumps({
        "correct": tally.failed == 0 and repeats,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
