"""End-to-end benchmark of the ``deltadesc`` CLI, with an optional traced run per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload long-route --seed 7 --seconds 20 --trace 0

Each workload generates its inputs with ``deltadesc synth`` from ``--seed``,
runs one untimed warm-up iteration, then repeats its iteration (one or two
CLI processes) for ``--seconds`` seconds. Every CLI invocation runs in a fresh
interpreter, one at a time; wall time comes from the launch/exit clock and
CPU time, page faults and peak RSS from ``os.wait4``. Every invocation's
outputs are checked, and a failed check counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half of
``--seconds`` on untraced iterations and half on iterations run through
``bench/traced_cli.py``, and reports per-layer metrics; see
``bench/README.md`` for the map from layer metrics to end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file with the
raw samples and the environment is written under ``bench/_work/results/``.
Exit status is 0 when every check passed, 1 when one failed, and 2 when the
program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SPEC = ROOT / "BENCHMARK.json"  # metric names, units and directions
CLI = "import sys; from deltadesc.cli import main; sys.exit(main())"
TRACED_CLI = BENCH / "traced_cli.py"

DEADLINE_S = 170.0  # the whole run must end well inside 180 s
SETUP_REPEATS = 3
MIB = 1024 * 1024
SUMMARY_KEYS = {"precision_at_full_recall", "max_f1", "radius", "radius_mode",
                "transform", "window", "seqmatch_length", "pca_k"}

COMMON_SYNTH = ("--latent-smooth-window", "20", "--noise-scale", "0.1")
COMMON_RUN = ("--radius", "2", "--radius-mode", "frames")
READ_WRITE = {"read_descriptors", "read_ground_truth", "write_matches_csv",
              "write_pr_csv", "write_summary_json"}
EVALUATE = {"evaluate_pr", "correct_matches", "precision_at_full_recall", "max_f1"}


@dataclass(frozen=True)
class Expected:
    """Outputs recorded for one (shape, seed): checked for equality."""

    max_f1: float
    precision_at_full_recall: float
    span: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: dict  # "full" / "tiny" -> (frames, dims)
    synth_args: tuple
    run_args: tuple
    calibrate: bool  # iteration = calibrate, then run with --window <span>
    functions: frozenset  # traced functions that must fire every iteration
    expected: dict = field(default_factory=dict)  # (shape, seed) -> Expected
    # max_f1 floor per shape, for seeds without recorded values
    f1_floor: dict = field(default_factory=lambda: {"full": 0.99, "tiny": 0.99})


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The dense Q x R path at scale: distance, seqmatch and retrieve are
        # ~90% of the run and peak RSS is ~5.8x the 488 MiB matrix.
        Workload(
            name="long-route",
            shapes={"full": (8000, 512), "tiny": (400, 64)},
            synth_args=("--offset-scale", "0.5"),
            run_args=("--transform", "delta", "--window", "16", "--seqmatch-length", "8"),
            calibrate=False,
            functions=frozenset({"delta", "distance_matrix", "seq_match", "retrieve_best"})
            | READ_WRITE | EVALUATE,
            expected={("full", 7): Expected(1.0, 1.0), ("tiny", 7): Expected(1.0, 1.0)},
        ),
        # GEMM-bound span bank at the paper's NetVLAD size under a 2x slow-down
        # segment; Q x R is small, so tiling alone should not move it.
        Workload(
            name="netvlad-bank",
            shapes={"full": (2000, 4096), "tiny": (300, 256)},
            synth_args=("--offset-scale", "0.5", "--warp", "0:0,0.3:0.3,0.5:0.4,0.7:0.7,1:1"),
            run_args=("--transform", "multi-delta", "--spans", "8", "16", "32"),
            calibrate=False,
            functions=frozenset({"delta_bank", "multi_delta_distance", "retrieve_best"})
            | READ_WRITE | EVALUATE,
            expected={("full", 7): Expected(0.999, 0.999),
                      ("tiny", 7): Expected(0.9916527545909849, 0.99)},
            # At 300 frames the slow-down segment costs tiny inputs 1-3% of F1.
            f1_floor={"full": 0.99, "tiny": 0.95},
        ),
        # Calibration's row-wise dots and PCA's SVD dominate; matching runs at
        # D = 128, so a GEMM-only kernel change must not slow it.
        Workload(
            name="calibrate-pca",
            shapes={"full": (3000, 2048), "tiny": (300, 160)},
            synth_args=("--offset-scale", "0",),
            run_args=("--transform", "delta", "--pca-k", "128", "--seqmatch-length", "8"),
            calibrate=True,
            functions=frozenset({"self_distance_profile", "estimate_span", "delta", "pca_fit",
                                 "pca_transform", "save_pca_model", "distance_matrix",
                                 "seq_match", "retrieve_best"})
            | READ_WRITE | EVALUATE,
            expected={("full", 7): Expected(1.0, 1.0, 14), ("tiny", 7): Expected(1.0, 1.0, 14)},
        ),
    )
}


@dataclass
class Proc:
    """One finished CLI process."""

    label: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    minor_faults: int
    stdout: bytes
    stderr: bytes
    record: Optional[dict] = None  # traced_cli's spans file, for traced processes
    summary: Optional[dict] = None  # summary.json, for a checked run process


class Bench:
    """One benchmark run: a workload at one shape and seed, in its own work directory."""

    def __init__(self, wl: Workload, shape: str, seed: int, trace: bool) -> None:
        self.wl, self.shape, self.seed = wl, shape, seed
        self.frames, self.dims = wl.shapes[shape]
        self.expected = wl.expected.get((shape, seed))
        self.dir = WORK / f"{wl.name}-{shape}-seed{seed}-trace{int(trace)}"
        self.ref, self.query, self.gt = (self.dir / n for n in ("ref.bin", "query.bin", "gt.csv"))
        self.out = self.dir / "out"
        self.t_start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.threads = min(len(os.sched_getaffinity(0)), 2)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(self.threads),
                        OMP_NUM_THREADS=str(self.threads))
        self.n_launch = 0

    # -- processes ---------------------------------------------------------

    def launch(self, label: str, argv: list[str], traced: bool = False) -> Proc:
        """Run one CLI process to completion and collect its rusage and outputs."""
        self.n_launch += 1
        stem = self.dir / f"{self.n_launch:03d}-{label}"
        spans = stem.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI, *argv]
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.t_start))
        out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record = json.loads(spans.read_text()) if traced and spans.exists() else None
        return Proc(label, code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                    ru.ru_minflt, out.read_bytes(), err.read_bytes(), record)

    def account(self, proc: Proc, problems: list[str]) -> bool:
        """Count one invocation; a non-zero exit or a failed check makes it a failure."""
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit code {proc.code}: {proc.stderr.decode(errors='replace')[-300:]}"]
        if problems:
            self.failed += 1
            msg = f"{proc.label}: " + "; ".join(problems)
            self.errors.append(msg)
            print(f"FAILED {msg}", file=sys.stderr)
        return not problems

    # -- workload steps ----------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        """Generate the inputs from the seed; return each successful synth's wall time."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.out.mkdir(parents=True)
        argv = ["synth", "--frames", str(self.frames), "--dims", str(self.dims),
                *COMMON_SYNTH, *self.wl.synth_args, "--seed", str(self.seed),
                "--out-ref", str(self.ref), "--out-query", str(self.query), "--out-gt", str(self.gt)]
        walls = []
        for _ in range(repeats):
            p = self.launch("synth", argv)
            missing = [f.name for f in (self.ref, self.query, self.gt) if not f.is_file()]
            if self.account(p, [f"missing {', '.join(missing)}"] if missing else []):
                walls.append(p.wall_s)
        return walls

    def iteration(self, traced: bool = False, digest: Optional[str] = None) -> Optional[list[Proc]]:
        """Run one iteration; return its processes, or None if an invocation failed.

        A traced iteration must fire every function the workload lists and, when
        ``digest`` is given, reproduce the untraced outputs byte for byte.
        """
        procs = []
        run_argv = ["run", "--ref", str(self.ref), "--query", str(self.query),
                    "--gt", str(self.gt), *COMMON_RUN, "--out-dir", str(self.out),
                    *self.wl.run_args]
        if self.wl.calibrate:
            p = self.launch("calibrate", ["calibrate", "--input", str(self.ref)], traced)
            procs.append(p)
            span, problems = self.check_span(p.stdout)
            if not self.account(p, problems):
                return None
            run_argv += ["--window", str(span)]
        for f in self.out.iterdir():
            f.unlink()
        p = self.launch("run", run_argv, traced)
        procs.append(p)
        problems = self.check_run(p)
        if traced and p.code == 0:
            problems += self.check_traced(procs, digest)
        return procs if self.account(p, problems) else None

    def measure(self, seconds: float, traced: bool = False,
                digest: Optional[str] = None) -> list[list[Proc]]:
        """Repeat iterations until ``seconds`` have passed (at least one is run)."""
        samples = []
        t0 = time.perf_counter()
        while True:
            it0 = time.perf_counter()
            procs = self.iteration(traced, digest)
            if procs is not None:
                samples.append(procs)
            now = time.perf_counter()
            if now - t0 >= seconds or now - self.t_start + (now - it0) > DEADLINE_S:
                return samples

    # -- output checks -----------------------------------------------------

    def check_span(self, stdout: bytes) -> tuple[int, list[str]]:
        try:
            span = int(stdout.decode().strip())
        except ValueError:
            return 1, [f"calibrate printed {stdout[:80]!r}, not an integer span"]
        if span < 1:
            return span, [f"calibrate printed span {span} < 1"]
        if self.expected and span != self.expected.span:
            return span, [f"calibrate printed span {span}, recorded {self.expected.span}"]
        return span, []

    def check_run(self, proc: Proc) -> list[str]:
        try:
            summary = json.loads((self.out / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"summary.json unreadable: {exc}"]
        proc.summary = summary
        problems = []
        if set(summary) != SUMMARY_KEYS:
            problems.append(f"summary.json keys {sorted(summary)}")
        f1, pafr = summary.get("max_f1"), summary.get("precision_at_full_recall")
        if self.expected:
            want = (self.expected.max_f1, self.expected.precision_at_full_recall)
            if (f1, pafr) != want:
                problems.append(f"(max_f1, precision_at_full_recall) = {(f1, pafr)}, recorded {want}")
        elif not (isinstance(f1, float) and self.wl.f1_floor[self.shape] <= f1 <= 1.0):
            problems.append(f"max_f1={f1!r} below the floor {self.wl.f1_floor[self.shape]}")
        if not (isinstance(pafr, float) and 0.0 < pafr <= 1.0):
            problems.append(f"precision_at_full_recall={pafr!r} outside (0, 1]")
        try:
            rows, queries = _count_rows(self.out / "matches.csv"), _count_rows(self.gt)
        except OSError as exc:
            return problems + [f"matches.csv unreadable: {exc}"]
        if rows != queries:
            problems.append(f"matches.csv has {rows} rows for {queries} queries")
        return problems

    def check_traced(self, procs: list[Proc], digest: Optional[str]) -> list[str]:
        if any(p.record is None for p in procs):
            return ["traced process wrote no spans file"]
        fired = {s["fn"] for p in procs for s in p.record["spans"]}
        problems = [f"span {fn} never fired" for fn in sorted(self.wl.functions - fired)]
        if digest is not None and self.outputs_digest(procs) != digest:
            problems.append("traced outputs differ from the untraced run's")
        return problems

    def outputs_digest(self, procs: list[Proc]) -> str:
        """Hash of the iteration's stdout and every file it wrote."""
        h = hashlib.sha256()
        for p in procs:
            h.update(p.label.encode() + b"\0" + p.stdout + b"\0")
        for f in sorted(self.out.iterdir()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
        return h.hexdigest()


def _count_rows(path: Path) -> int:
    """Data rows of a CSV with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def iteration_layers(procs: list[Proc]) -> dict:
    """Per-layer metrics of one traced iteration (its processes combined)."""
    spans = [s for p in procs for s in p.record["spans"]]

    def total(metric: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["metric"] == metric)

    def peak(prefix: str) -> float:
        allocs = [s["alloc_bytes"] or 0 for s in spans if s["metric"].startswith(prefix)]
        return max(allocs, default=0) / MIB

    pairings = gflop = gemm_gflop = gemm_s = result_mib = validate_s = 0.0
    for p in procs:
        if p.record["distance_shape"] is not None:
            q, r, d, pairs = p.record["distance_shape"]
            pairings += pairs
            gflop += 2.0 * q * r * d * pairs / 1e9
            gemm_gflop += 2.0 * q * r * d / 1e9
            gemm_s += p.record["gemm_s"]
            result_mib = max(result_mib, q * r * 8 / MIB)
            validate_s += p.record["validate_s"]
    distance_s = total("matching.distance")
    top_level = sum(s["end"] - s["start"] for s in spans if s["depth"] == 0)
    return {
        "io.read_s": total("io.read"),
        "io.read_alloc_mib": peak("io.read"),
        "io.write_s": total("io.write"),
        "transform.delta_s": total("transform.delta"),
        "transform.alloc_mib": peak("transform.delta"),
        "reduction.pca_fit_s": total("reduction.pca_fit"),
        "reduction.pca_transform_s": total("reduction.pca_transform"),
        "matching.distance_s": distance_s,
        "matching.pairings": pairings,
        "matching.distance_gflop": gflop,
        "matching.distance_gflops": gflop / distance_s if distance_s > 0 else 0.0,
        "machine.gemm_gflops": gemm_gflop / gemm_s if gemm_s > 0 else 0.0,
        "matching.seqmatch_s": total("matching.seqmatch"),
        "matching.retrieve_s": total("matching.retrieve"),
        "matching.result_mib": result_mib,
        "matching.alloc_mib": peak("matching."),
        "matching.validate_s": validate_s,
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "calibration.profile_s": total("calibration.profile"),
        "calibration.offsets": float(sum(p.record["offsets"] for p in procs)),
        "cli.self_s": sum(p.record["main_s"] for p in procs) - top_level,
        "cli.import_s": sum(p.record["import_s"] for p in procs),
    }


def environment(threads: int) -> dict:
    """What the numbers depend on besides the code: recorded in every results file."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted((SRC / "deltadesc").glob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def collect(setup: list[float], untraced: list, traced: list) -> dict:
    """name -> (median, samples) for every metric this run produced."""
    metrics = {}

    def put(name: str, values: list) -> None:
        if values:
            metrics[name] = (float(statistics.median(values)), len(values))

    run_s = [sum(p.wall_s for p in it) for it in untraced]
    put("setup_s", setup)
    put("run_s", run_s)
    put("peak_rss_mib", [max(p.maxrss_mib for p in it) for it in untraced])
    put("max_f1", [it[-1].summary["max_f1"] for it in untraced])
    put("precision_at_full_recall", [it[-1].summary["precision_at_full_recall"] for it in untraced])
    if not traced:
        return metrics
    put("process.cpu_s", [sum(p.cpu_s for p in it) for it in untraced])
    put("process.minor_faults", [sum(p.minor_faults for p in it) for it in untraced])
    layers = [iteration_layers(it) for it in traced]
    for name in layers[0]:
        put(name, [lay[name] for lay in layers])
    # Probe and tail time inside the traced process is not tracing overhead.
    traced_wall = [sum(p.wall_s - p.record["probe_s"] - p.record["tail_s"] for p in it)
                   for it in traced]
    metrics["trace.overhead_s"] = (
        float(statistics.median(traced_wall) - statistics.median(run_s)), len(traced_wall))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed passed to synth (7 has recorded outputs)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to repeat the measured iteration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced iterations and report per-layer metrics")
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a smoke test of the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "deltadesc" / "cli.py").is_file():
        print(f"bench: {SRC / 'deltadesc' / 'cli.py'} not found; run from a deltadesc checkout",
              file=sys.stderr)
        return 2

    b = Bench(WORKLOADS[args.workload], args.shape, args.seed, bool(args.trace))
    untraced, traced = [], []
    try:
        setup = b.setup(1 if args.trace else SETUP_REPEATS)
        # The first iteration after set-up runs 15-30% slow (page cache, fresh
        # memory), so one untimed warm-up precedes the measured ones.
        # A traced run splits its time between untraced and traced iterations.
        seconds = args.seconds / 2 if args.trace else args.seconds
        if setup and b.iteration() is not None:
            untraced = b.measure(seconds)
        if args.trace and untraced:
            digest = b.outputs_digest(untraced[-1])
            traced = b.measure(seconds, traced=True, digest=digest)
    finally:
        if b.dir.exists():
            shutil.rmtree(b.dir)

    metrics = collect(setup, untraced, traced)
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        b.errors.append(f"no samples for {', '.join(missing)}")
    correct = b.failed == 0 and not b.errors

    env = environment(b.threads)
    results = WORK / "results" / f"{b.dir.name}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "workload": args.workload, "shape": args.shape, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "correct": correct, "attempted": b.attempted, "failed": b.failed, "errors": b.errors,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "raw": {
            "setup_s": setup,
            "untraced": [[vars(p) | {"stdout": None, "stderr": None, "record": None}
                          for p in it] for it in untraced],
            "traced": [[p.record for p in it] for it in traced],
        },
    }, indent=1, default=str) + "\n")

    print(f"environment: {env['src_lines']['total']} src lines; "
          + ", ".join(f"{k}={v}" for k, v in env.items() if k != "src_lines"))
    print(f"{'metric':28s} {'median':>14s} {'unit':8s} samples")
    for name, (value, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]:8s} {n}")
    print(f"invocations: {b.attempted} attempted, {b.failed} failed; results in "
          f"{results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": b.attempted, "failed": b.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in wanted if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
