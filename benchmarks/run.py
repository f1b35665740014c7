"""Benchmark of the sparsesteiner removal process and the tools around it.

    python3 benchmarks/run.py --workload k4-n300 --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload until --seconds have passed, through the
package's CLI subcommands and public functions, checks every output with the
independent checks in checks.py, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the rounds run again with spans
around each layer call, the per-layer metrics are printed, and the spans are
written to benchmarks/out/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DESIGN = dict(n=40, q=4, r=2, k=3, gamma=0.5)


@dataclass(frozen=True)
class Workload:
    """One round: set-ups, tracked runs, verifies of their output, designs, proofs."""

    name: str
    setup_jmax: int
    setup_n: Optional[int]  # None: the set-up is the catalog build alone
    setup_reps: int
    n: int
    k: int
    gamma: float
    run_flags: tuple[str, ...]
    verify_flags: tuple[str, ...]
    run_seed: Optional[int]  # None: each run's seed comes from --seed
    runs: int
    verifies: int  # verify calls per round, on the round's runs in turn
    designs: int
    proof_j_cap: int
    proof_reps: int


# Identical work varies by about a tenth from call to call on the shared
# reference machine, so each metric is a median over calls spread through the run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("k4-n300", setup_jmax=6, setup_n=300, setup_reps=15, n=300, k=4, gamma=0.2,
                 run_flags=(), verify_flags=(), run_seed=None, runs=2, verifies=1, designs=6,
                 proof_j_cap=6, proof_reps=3),
        # The checkpoint cost of a 10-triple sample swings by a third between
        # run seeds (the j=8 counts of the few triples still alive dominate),
        # so this run keeps one seed; everything else follows --seed.
        Workload("k6-n100", setup_jmax=8, setup_n=100, setup_reps=3, n=100, k=6, gamma=0.35,
                 run_flags=("--triples", "10"), verify_flags=(), run_seed=1, runs=1, verifies=2,
                 designs=6, proof_j_cap=6, proof_reps=3),
        Workload("designs-proofs", setup_jmax=8, setup_n=None, setup_reps=1, n=80, k=4, gamma=0.3,
                 run_flags=(), verify_flags=("--samples", "2000"), run_seed=None, runs=3, verifies=3,
                 designs=2, proof_j_cap=7, proof_reps=1),
    )
}


@dataclass
class Record:
    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    verify: list[float] = field(default_factory=list)
    design: list[float] = field(default_factory=list)
    proof: list[float] = field(default_factory=list)
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    catalog: object = None
    runs: list[Path] = field(default_factory=list)
    designs: list[Path] = field(default_factory=list)
    proofs: list = field(default_factory=list)


def _call(rec: Record, fn, *args):
    """One operation: a CLI subcommand (exit code 0 expected) or a function call."""
    rec.attempted += 1
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # a failed operation is counted, not fatal
        print(f"operation failed: {fn.__name__}{args}", file=sys.stderr)
        traceback.print_exc()
        rec.failed += 1
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    if isinstance(out, int) and out != 0:
        print(f"operation failed: {fn.__name__}{args}: exit {out}", file=sys.stderr)
        rec.failed += 1
        return None, elapsed
    return out, elapsed


def _setup(wl: Workload, seed: int):
    from sparsesteiner import configs, process

    catalog = configs.enumerate_erdos(wl.setup_jmax)
    if wl.setup_n is not None:
        process.init(wl.setup_n, wl.k, seed, catalog)
    return catalog


def run_round(wl: Workload, rng: random.Random, work: Path, rnd: int, rec: Record) -> None:
    from sparsesteiner import cli, extensions

    for _ in range(wl.setup_reps):
        catalog, dt = _call(rec, _setup, wl, rng.randrange(1 << 31))
        if catalog is not None:
            rec.setup.append(dt)
            rec.catalog = catalog
    outputs = []
    for i in range(wl.runs):
        base = work / f"run{rnd}-{i}"
        # Each `sparsesteiner run` builds its catalog, as a fresh process would.
        getattr(cli, "_CATALOG_CACHE", {}).clear()
        argv = ["run", "--n", str(wl.n), "--k", str(wl.k), "--gamma", str(wl.gamma),
                "--seed", str(rng.randrange(1 << 31) if wl.run_seed is None else wl.run_seed),
                *wl.run_flags, "--out", str(base)]
        rc, dt = _call(rec, cli.main, argv)
        if rc is not None:
            rec.run.append(dt)
            outputs.append(base)
    rec.runs += outputs
    for i in range(wl.verifies if outputs else 0):
        sts = outputs[i % len(outputs)].with_suffix(".sts")
        rc, dt = _call(rec, cli.main, ["verify", "--file", str(sts), "--k", str(wl.k), *wl.verify_flags])
        if rc is not None:
            rec.verify.append(dt)
    for i in range(wl.designs):
        base = work / f"design{rnd}-{i}"
        argv = ["design", *(f"--{key}={val}" for key, val in DESIGN.items()),
                "--seed", str(rng.randrange(1 << 31)), "--out", str(base)]
        rc, dt = _call(rec, cli.main, argv)
        if rc is not None:
            rec.design.append(dt)
            rec.designs.append(base)
    if rec.catalog is None:
        return
    for _ in range(wl.proof_reps):
        report, dt = _call(rec, extensions.verify_balancedness_props, rec.catalog, wl.proof_j_cap)
        if report is not None:
            rec.proof.append(dt)
            rec.proofs.append(report)


def check_all(wl: Workload, rec: Record) -> list[str]:
    import checks

    problems: list[str] = []
    for base in rec.runs:
        problems += checks.check_run(base, wl.n, wl.k, wl.gamma)
    for base in rec.designs:
        problems += checks.check_design(base, **DESIGN)
    for report in rec.proofs:
        problems += checks.check_proof(report, wl.proof_j_cap)
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(rec: Record, clock_s: float, peak_kib: int) -> dict:
    return {
        "setup_s": (_median(rec.setup), "s"),
        "run_s": (_median(rec.run), "s"),
        "steps_per_s": (rec.steps / clock_s if clock_s else float("nan"), "steps/s"),
        "verify_s": (_median(rec.verify), "s"),
        "design_s": (_median(rec.design), "s"),
        "balancedness_s": (_median(rec.proof), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def per_layer(wl: Workload, rec: Record, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and per-(j,c) details for the trace file."""

    def med(name: str, scale: float = 1.0) -> float:
        return _median(tracer.durations(name)) * scale

    def pct(name: str, q: float, scale: float) -> float:
        values = sorted(tracer.durations(name))
        if not values:
            return float("nan")
        return values[min(len(values) - 1, int(q * len(values)))] * scale

    def per_run_total(name: str) -> float:
        return sum(tracer.durations(name)) / max(1, len(rec.runs))

    jc_names = sorted({s[0] for s in tracer.spans if s[0].startswith("stats.X_Tjc.")})
    x_tjc = [d for name in jc_names for d in tracer.durations(name)]
    designs = [json.loads(b.with_suffix(".json").read_text()) for b in rec.designs]
    plans = sum(len(e.pair_plans) for e in rec.catalog.entries() if e.j <= wl.k + 2) if rec.catalog else 0
    proof_instances = sum(c.instances for c in rec.proofs[0].checks) if rec.proofs else 0
    metrics = {
        "configs.enumerate_s": (med(f"configs.enumerate.j{wl.setup_jmax}"), "s"),
        "configs.plans": (plans, "count"),
        "process.init_s": (med("process.init"), "s"),
        "process.step_us.p50": (pct("process.step", 0.50, 1e6), "us"),
        "process.step_us.p99": (pct("process.step", 0.99, 1e6), "us"),
        "process.search_us": (med("process.search", 1e6), "us"),
        "process.excluded_per_step": (_mean(tracer.excluded), "count"),
        "process.steps": (len(tracer.excluded) / max(1, len(rec.runs)), "count"),
        "stats.checkpoint_s": (per_run_total("stats.checkpoint"), "s"),
        "stats.X_e_us": (med("stats.X_e", 1e6), "us"),
        "stats.X_Tjc_us": (_mean(x_tjc) * 1e6, "us"),
        "stats.export_s": (med("stats.export"), "s"),
        "trajectory.params_s": (med("trajectory.params"), "s"),
        "cli.write_sts_s": (med("cli.write_sts"), "s"),
        "cli.read_sts_s": (med("cli.read_sts"), "s"),
        "sparse_check.partial_steiner_s": (med("sparse_check.partial_steiner"), "s"),
        "sparse_check.exhaustive_s": (med("sparse_check.exhaustive"), "s"),
        "sparse_check.sampled_s": (med("sparse_check.sampled"), "s"),
        "general_designs.sparsify_s": (med("general_designs.sparsify"), "s"),
        "general_designs.aux_build_s": (med("general_designs.aux_build"), "s"),
        "general_designs.matching_s": (med("general_designs.matching"), "s"),
        "general_designs.weak_check_s": (med("general_designs.weak_check"), "s"),
        "general_designs.sparsify_attempts": (_mean([d["sparsify_attempts"] for d in designs]), "count"),
        "general_designs.matched_blocks": (_mean([d["matched_blocks"] for d in designs]), "count"),
        "extensions.instances": (proof_instances, "count"),
        "extensions.us_per_instance": (
            _median(rec.proof) / proof_instances * 1e6 if proof_instances else float("nan"), "us"),
    }
    details = {
        f"stats.X_Tjc_us.{name.rsplit('.', 1)[1]}": med(name, 1e6) for name in jc_names
    }
    details["run_s"] = _median(rec.run)
    return metrics, details


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sparsesteiner" / "__init__.py").is_file():
        print(f"error: no sparsesteiner sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans as tracing
    from sparsesteiner import cli, general_designs

    wl = WORKLOADS[args.workload]
    work = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(f"{wl.name}:{args.seed}")
    clock = tracing.RunClock()
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.instrument(clock, tracer, rng.randrange(1 << 31))
    rec = Record()
    try:
        # The CLI's own messages go to stderr; stdout ends with the result line.
        with contextlib.redirect_stdout(sys.stderr):
            started = time.perf_counter()
            rnd = 0
            while rnd == 0 or time.perf_counter() - started < args.seconds:
                run_round(wl, rng, work, rnd, rec)
                rnd += 1
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for base in rec.runs:
                rec.steps += json.loads(base.with_suffix(".json").read_text())["tau"]
            if tracer is not None:
                # The package's own weak-sparseness check, timed on each design.
                for base in rec.designs:
                    general_designs.is_weakly_k_sparse(cli.read_qsys(base.with_suffix(".qsys")), DESIGN["k"])
    finally:
        restore()
    problems = check_all(wl, rec)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(rec, clock.seconds, peak_kib)
    else:
        metrics, details = per_layer(wl, rec, tracer)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json",
                     {"workload": wl.name, "seed": args.seed, "details": details})
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": None if value != value else value, "unit": unit}  # NaN: nothing measured
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
