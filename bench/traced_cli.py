"""Run one ``deltadesc`` CLI invocation with a timing span around each layer call.

Usage::

    PYTHONPATH=src python bench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Runs in a fresh interpreter started by ``bench/run.py``. It times
``import deltadesc.cli``, replaces the library functions that the workloads
reach through ``deltadesc.cli`` (names bound in ``deltadesc.cli`` and
attributes of ``deltadesc.io``) with wrappers that record one span per call,
and then calls the real ``cli.main`` in this process. Nothing under ``src/`` is
modified. The spans and two probes are written to SPANS_JSON:

* ``validate_s``: ``DistanceMatrix(...)`` rebuilt on the distance result, which
  is already a read-only float64 Q x R array, so the time is pure validation
  and copying;
* ``gemm_s``: a plain numpy GEMM of the distance call's shape.

Probe time is reported separately (``probe_s``/``tail_s``) so the caller can
subtract it from the process wall time when it computes tracing overhead.
The exit status is ``cli.main``'s.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# Wrapped function -> per-layer metric it is summed into. Only functions that
# the benchmark workloads call are listed; ``run.py`` requires each of its
# workload's functions to fire at least once.
CLI_FUNCTIONS = {
    "delta": "transform.delta",
    "delta_bank": "transform.delta",
    "pca_fit": "reduction.pca_fit",
    "pca_transform": "reduction.pca_transform",
    "distance_matrix": "matching.distance",
    "multi_delta_distance": "matching.distance",
    "seq_match": "matching.seqmatch",
    "retrieve_best": "matching.retrieve",
    "evaluate_pr": "evaluation.evaluate",
    "correct_matches": "evaluation.evaluate",
    "precision_at_full_recall": "evaluation.evaluate",
    "max_f1": "evaluation.evaluate",
    "self_distance_profile": "calibration.profile",
    "estimate_span": "calibration.profile",
}
IO_FUNCTIONS = {
    "read_descriptors": "io.read",
    "read_ground_truth": "io.read",
    "write_matches_csv": "io.write",
    "write_pr_csv": "io.write",
    "write_summary_json": "io.write",
    "save_pca_model": "io.write",
}
# Layers whose calls also get a tracemalloc peak. tracemalloc runs only inside
# these calls, so Python-heavy code elsewhere (CSV writing) is not slowed.
ALLOC_LAYERS = {"io.read", "transform.delta", "matching.distance", "matching.seqmatch",
                "matching.retrieve"}


class Recorder:
    """Spans of one CLI invocation, plus the shapes the probes need."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.depth = 0
        self.probe_s = 0.0
        self.validate_s = 0.0
        self.distance_shape = None  # (Q, R, D, pairings) of the last distance call
        self.offsets = 0

    def wrap(self, fn, name: str, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = metric in ALLOC_LAYERS and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            self.depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.depth -= 1
                peak = None
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.spans.append({"fn": name, "metric": metric, "start": t0, "end": t1,
                                   "depth": self.depth, "alloc_bytes": peak})
            self._observe(name, args, out)
            return out

        return traced

    def _observe(self, name: str, args: tuple, out) -> None:
        if name in ("distance_matrix", "multi_delta_distance"):
            if name == "distance_matrix":
                q_members, r_members = [args[0]], [args[1]]
            else:
                q_members, r_members = list(args[0]), list(args[1])
            q, r = q_members[0], r_members[0]
            self.distance_shape = (q.frame_count, r.frame_count, q.dim,
                                   len(q_members) * len(r_members))
            from deltadesc.matching import DistanceMatrix

            t0 = time.perf_counter()
            DistanceMatrix(out.values)
            t1 = time.perf_counter()
            self.validate_s += t1 - t0
            self.probe_s += t1 - t0
        elif name == "self_distance_profile":
            self.offsets += int(out.offsets.size)


def install(rec: Recorder, cli, ddio) -> None:
    """Replace each listed function with its traced wrapper; fail if one is missing."""
    for module, table in ((cli, CLI_FUNCTIONS), (ddio, IO_FUNCTIONS)):
        for name, metric in table.items():
            fn = getattr(module, name, None)
            if not callable(fn):
                raise SystemExit(f"traced_cli: {module.__name__}.{name} not found")
            setattr(module, name, rec.wrap(fn, name, metric))


def gemm_seconds(q: int, r: int, d: int) -> float:
    """Time one float64 (q x d) @ (d x r) product, the distance kernel's shape."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((q, d))
    b = rng.standard_normal((r, d))
    t0 = time.perf_counter()
    c = a @ b.T
    elapsed = time.perf_counter() - t0
    del a, b, c
    return elapsed


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    spans_path, argv = sys.argv[1], sys.argv[3:]

    t0 = time.perf_counter()
    import deltadesc.cli as cli
    from deltadesc import io as ddio

    import_s = time.perf_counter() - t0

    rec = Recorder()
    install(rec, cli, ddio)
    t0 = time.perf_counter()
    code = cli.main(argv)
    main_end = time.perf_counter()
    main_s = main_end - t0 - rec.probe_s

    gemm_s = None
    if rec.distance_shape is not None:
        q, r, d, _ = rec.distance_shape
        gemm_s = gemm_seconds(q, r, d)
    record = {
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
        "spans": rec.spans,
        "validate_s": rec.validate_s,
        "distance_shape": rec.distance_shape,
        "offsets": rec.offsets,
        "gemm_s": gemm_s,
        "probe_s": rec.probe_s,
    }
    record["tail_s"] = time.perf_counter() - main_end
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
