#!/usr/bin/env python3
"""sarcse benchmark.

    python3 bench/run.py --workload {train-toy,train-wide,infer-mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a sarcse checkout. Inputs are generated from the seed;
the workload runs in this one process for about S seconds; every output is
checked. Human-readable lines come first, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. A full record (manifest, input sha256s, every metric, and
for traced runs the spans) goes to .bench_work/results/.
"""

import os

# One BLAS thread for this process, set before numpy loads: on a 2-core
# machine a pinned thread keeps BLAS thread scheduling out of the numbers.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("BENCHMARK.json", "src/sarcse/__init__.py", "scripts/make_toy_data.py", "data/smoke_margin.json")
SETUP_REPEATS = 9
# Rounds (jobs or cycles) a run always makes: train-wide jobs take ~15 s,
# so within the run time it makes two, the least the log comparison needs.
MIN_ROUNDS = {"train-toy": 3, "train-wide": 2, "infer-mix": 3}
# Tail percentile per workload: the highest with at least 10 samples beyond
# it. On train-* it is taken over all steps of a run of MIN_ROUNDS jobs (597
# steps, 86 steps). On infer-mix it is taken within each cycle (192
# single-sentence requests) over the CPU time each request takes, and the
# run reports the median over its cycles. A ~4 ms request that the host
# deschedules for a few ms lands in the tail: the wall-time p98 of runs of
# one commit spread by up to 70% of its median with how busy the other
# tenants were. The kernel keeps steal time and run-queue waits out of a
# process's CPU time, and the median over cycles ignores a few slow cycles.
# Fixed, so that runs with more rounds still compare like with like.
TAIL_PERCENTILE = {"train-toy": 98, "train-wide": 80, "infer-mix": 94}


# -- manifest ------------------------------------------------------------------


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*.py")):
        h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": tree_sha256(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


# -- measured loops ----------------------------------------------------------------


@dataclass
class Unit:
    """One timed unit of work: a training job, a 256-sentence embed, a block
    of single-sentence embeds or an eval."""

    kind: str
    wall_s: float
    traced: bool
    ok: bool
    samples: dict = field(default_factory=dict)
    round: int = 0           # index of the cycle it belongs to (infer-mix)
    cpu_s: list = field(default_factory=list)   # process CPU time per request


class Run:
    """Units, counters and failures of one benchmark invocation."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.units: list[Unit] = []
        self.rounds: list[tuple[bool, float]] = []     # (traced, wall) per job or cycle

    def record(self, failed: list[str], what: str) -> None:
        self.attempted += 1
        if failed:
            self.failures.append(f"{what}: {'; '.join(failed)}")

    def clean(self, kind: str) -> list[Unit]:
        return [u for u in self.units if u.kind == kind and u.ok and not u.traced]

    def pool(self, kind: str, key: str) -> list[float]:
        """Samples under `key` of every clean, untraced unit of `kind`."""
        return [v for u in self.clean(kind) for v in u.samples[key]]


def run_rounds(run, seconds, tracer, do_round) -> None:
    """Call do_round(content index, traced) until the time is up.

    Untraced, each round is new content, and at least MIN_ROUNDS run.
    Traced, rounds come in pairs, the same content untraced then traced,
    so that their difference is the tracing overhead; at least one pair.
    Another round starts only if it should end within `seconds`.
    """
    start = perf_counter()
    while True:
        n = len(run.rounds)
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = do_round(n // 2 if tracer is not None else n, traced)
        finally:
            if traced:
                tracer.uninstall()
        run.rounds.append((traced, wall))
        elapsed = perf_counter() - start
        n += 1
        if tracer is not None:
            if n % 2 == 0 and elapsed + elapsed / n * 2 > seconds:
                return
        elif n >= MIN_ROUNDS[run.workload] and elapsed + elapsed / n > seconds:
            return


def run_train(W, args, inp, work, checks, run, tracer):
    """Repeat the training job. All jobs of a run share inputs and seed, so
    their logs must match byte for byte."""

    def job_round(_, traced):
        hook = (lambda: setattr(tracer, "op", tracer.op + 1)) if traced else None
        gc.collect()     # garbage from the previous job's checks is not this job's cost
        t0 = perf_counter()
        try:
            job = W.run_train_job(args.workload, args.seed, inp, work / "job", checks, hook)
            failed = job.failures
        except Exception:
            traceback.print_exc(file=sys.stderr)
            job, failed = None, ["exception"]
        run.record(failed, f"job {len(run.rounds)}")
        wall = job.wall_s if job else perf_counter() - t0
        run.units.append(Unit("job", wall, traced, not failed, {} if job is None else {
            "job_s": [job.wall_s], "step_ms": job.step_ms, "sentences": [job.sentences]}))
        return wall

    run_rounds(run, args.seconds, tracer, job_round)


def run_infer(W, args, inp, work, checks, run, tracer):
    """Closed loop, one client: each request starts when the previous one has
    returned. A round is one cycle of `W.cycle_units`; its wall time is the
    summed request latency, without the checks in between."""
    import sarcse.cli

    width = W.TOY["mix_channels"] * (W.TOY["enc_channels"] - 1)
    sink = io.StringIO()

    def cycle_round(cycle, traced):
        wall = 0.0
        for kind, reqs in W.cycle_units(inp, cycle, work):
            gc.collect()
            unit = Unit(kind, 0.0, traced, True, round=len(run.rounds))
            for req in reqs:
                if traced:
                    tracer.op += 1
                try:
                    with contextlib.redirect_stdout(sink):
                        t0, c0 = perf_counter(), process_time()
                        code = sarcse.cli.main(req.argv)
                        dt, cpu = perf_counter() - t0, process_time() - c0
                    sink.seek(0)
                    sink.truncate()
                    failed = checks.request(req, code, width)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed = ["exception"]
                run.record(failed, f"cycle {cycle} {req.kind}")
                unit.ok = unit.ok and not failed
                if not failed:
                    unit.wall_s += dt
                    unit.samples.setdefault(req.kind, []).append(dt)
                    unit.cpu_s.append(cpu)
            run.units.append(unit)
            wall += unit.wall_s
        return wall

    run_rounds(run, args.seconds, tracer, cycle_round)


# -- main ------------------------------------------------------------------------


def end_to_end(W, args, run, setup_s) -> dict:
    if args.workload.startswith("train"):
        jobs = run.clean("job")
        op_ms = run.pool("job", "step_ms")
        rows = [
            ("sent_per_s", "train.sent_per_s", sum(run.pool("job", "sentences")) / sum(u.wall_s for u in jobs),
             "1/s", f"sentences / wall time over {len(jobs)} jobs"),
            ("command_s", "train.job_s", statistics.median(u.wall_s for u in jobs), "s",
             f"median of {len(jobs)} jobs"),
        ]
        what = "step intervals"
        names = ("train.step_ms.p50", "train.step_ms.tail")
    else:
        bigs = run.pool("embed256", "embed256")
        evals = run.pool("eval", "eval")
        op_ms = [1000.0 * v for v in run.pool("embed1", "embed1")]
        rows = [
            ("sent_per_s", "infer.embed_sent_per_s", W.BIG_LINES * len(bigs) / sum(bigs), "1/s",
             f"sentences / latency over {len(bigs)} 256-sentence requests"),
            ("command_s", "infer.eval_s", statistics.median(evals), "s", f"median of {len(evals)} requests"),
        ]
        what = "single-sentence requests"
        names = ("infer.embed1_ms.p50", "infer.embed1_ms.tail")
    tail_p = TAIL_PERCENTILE[args.workload]
    if args.workload.startswith("train"):
        tail = float(np.percentile(op_ms, tail_p))
        tail_how = f"p{tail_p} of {len(op_ms)} {what}"
    else:
        by_cycle: dict[int, list[float]] = {}
        for u in run.clean("embed1"):
            by_cycle.setdefault(u.round, []).extend(1000.0 * v for v in u.cpu_s)
        tail = statistics.median(float(np.percentile(s, tail_p)) for s in by_cycle.values())
        tail_how = (f"median over {len(by_cycle)} cycles of each cycle's p{tail_p} of the CPU time"
                    f" of its {W.SINGLES_PER_BIG * W.BIGS_PER_CYCLE} {what}")
    rows[1:1] = [
        ("op_ms.p50", names[0], statistics.median(op_ms), "ms", f"median of {len(op_ms)} {what}"),
        ("op_ms.tail", names[1], tail, "ms", tail_how),
    ]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows += [
        ("setup_s", "setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        ("peak_rss_mb", "peak_rss_mb", rss, "MiB", "peak resident set of this process"),
    ]
    for key, label, v, unit, how in rows:
        print(f"  {label:24s} = {v:12.4f} {unit:4s} [{key}: {how}]")
    values = {key: (v, unit) for key, _, v, unit, _ in rows}
    values["op_ms.tail.percentile"] = (tail_p, "percentile")
    values["op_ms.tail.samples"] = (len(op_ms), "count")
    return values


def per_layer(args, run, tracer) -> tuple[dict, dict]:
    from tracing import should_move

    train = args.workload.startswith("train")
    traced_units = [u for u in run.units if u.traced and u.ok]
    if train:
        n_ops = sum(len(u.samples["step_ms"]) + 1 for u in traced_units)
    else:
        n_ops = sum(len(v) for u in traced_units for v in u.samples.values())
    values = tracer.metrics(max(1, n_ops))
    op = "step" if train else "request"
    print(f"  per-layer metrics over {n_ops} traced {op}s (ms and calls are per {op};"
          f" mflop and mbytes are per forward call, computed from operand shapes, not measured):")
    for name, (v, unit) in values.items():
        print(f"    {name:42s} = {v:14.4f} {unit:6s} moves: {should_move(name)}")
    print("    layer wait time: not reported; one process and one closed-loop client,"
          " so no queue or second worker exists to wait on")

    pairs = list(zip(run.rounds[0::2], run.rounds[1::2]))
    untraced = sum(u for (_, u), _ in pairs)
    traced = traced_wall = sum(t for _, (_, t) in pairs)
    by_layer = tracer.self_by_layer()
    uncovered = traced_wall - sum(by_layer.values())
    kind = "jobs" if train else "cycles"
    print(f"  tracing overhead: {len(pairs)} {kind} took {untraced * 1e3:.1f} ms untraced and the same"
          f" {kind} {traced * 1e3:.1f} ms traced: {(traced - untraced) * 1e3:+.1f} ms"
          f" ({100 * (traced / untraced - 1):+.1f}%)")
    print(f"  self time by layer; with the uncovered rest it adds up to the traced wall time"
          f" {traced_wall * 1e3:.1f} ms:")
    for layer, t in list(by_layer.items()) + [("uncovered", uncovered)]:
        print(f"    {layer:12s} {t * 1e3:12.1f} ms  {100 * t / traced_wall:5.1f}%")
    detail = {
        "traced_ops": n_ops,
        "overhead": {"untraced_s": untraced, "traced_s": traced, "overhead_s": traced - untraced},
        "traced_wall_s": traced_wall,
        "self_s_by_layer": by_layer,
        "uncovered_s": uncovered,
        "self_s_by_span": dict(zip(tracer.names, tracer.self_time)),
        "calls_by_span": dict(zip(tracer.names, tracer.calls)),
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-toy", "train-wide", "infer-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a sarcse checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)

    toy = W.load_toy_generator(ROOT)
    setup_times, sums = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inp = W.make_inputs(args.workload, args.seed, work / "inputs", toy)
        setup_times.append(perf_counter() - t0)
        these = inp.checksums()
        if sums is not None and these != sums:
            raise RuntimeError("input generation is not deterministic for one seed")
        sums = these
    setup_s = statistics.median(setup_times)

    man = manifest(args)
    print(f"sarcse bench {args.workload} seed {args.seed} for {args.seconds:g} s, trace {args.trace}")
    print("  manifest: " + json.dumps(man))
    checks = W.Checks(ROOT)
    run = Run(args.workload)
    tracer = Tracer() if args.trace else None
    loop = run_train if args.workload.startswith("train") else run_infer
    try:
        loop(W, args, inp, work, checks, run, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        values, detail = per_layer(args, run, tracer)
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(W, args, run, setup_s), {}
        wanted = spec["end_to_end"]
    failed = len(run.failures)
    print(f"  {'failed_share':24s} = {failed / run.attempted:12.4f} failed ops / attempted ops"
          f" ({failed} of {run.attempted})")
    for f in run.failures:
        print(f"  FAILED {f}")

    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "manifest": man,
        "inputs_sha256": sums,
        "setup_s_samples": setup_times,
        "units": [vars(u) for u in run.units],
        "rounds": run.rounds,
        "failures": run.failures,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        **detail,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(results / f"{stem}-spans.npz")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
