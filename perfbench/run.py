"""condlab benchmark: three CLI workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/selfcheck.py          # fast harness self-check

Every job runs ``condlab.cli.main(argv)`` on a generated config in its own
fresh Python process, one process at a time, with ``--workers 1`` and
BLAS/OpenMP threads pinned to 1.

``--trace 0`` first runs several set-up jobs (import condlab, build the
workload's meshes, material maps and data) and reports their median as
``setup_s``.  It then repeats the command while the next repetition still
fits in ``--seconds`` (at least once) and reports the median wall time,
the median peak RSS and the share of operations that succeeded.

``--trace 1`` runs the command once untraced and once with the layer
tracer of ``tracer.py`` and reports the per-layer metrics plus the
tracing overhead against the untraced wall time.

Every repetition's outputs are checked the way the acceptance tests read
them, and every data file except ``run_meta.json`` is hashed.  Digests
must agree across repetitions of one source tree; they are kept in
``perfbench/results/digests.json``.  Full results, the environment and
the trace go to ``perfbench/results/``.  The last line of standard output
is the JSON summary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, LAYER_MAP, WORKLOADS, plan  # noqa: E402

SETUP_JOBS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def preflight(workload) -> dict:
    """Check the checkout holds what the benchmark builds from."""
    needed = [os.path.join(ROOT, "BENCHMARK.json"),
              os.path.join(ROOT, "src", "condlab", "cli.py"),
              os.path.join(ROOT, "configs", workload.source)]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        raise HarnessError("not a condlab checkout, missing: "
                           + ", ".join(os.path.relpath(p, ROOT)
                                       for p in absent))
    with open(needed[0]) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_PINS, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    return env


def tree_digest() -> str:
    """Digest of the sources and configs that determine the outputs."""
    h = hashlib.sha256()
    for sub, ext in (("src/condlab", ".py"), ("configs", ".json"),
                     ("perfbench", ".py")):
        folder = os.path.join(ROOT, sub)
        for name in sorted(os.listdir(folder)):
            if name.endswith(ext):
                h.update(f"{sub}/{name}\0".encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def data_digests(out: str) -> dict[str, str]:
    """sha256 of every data file a run wrote, except run_meta.json."""
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        path = os.path.join(out, name)
        if name != "run_meta.json" and os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Runner:
    """Runs the jobs of one benchmark run, one fresh process at a time."""

    def __init__(self, workload, work: str, config: str, argv: list[str],
                 expect: dict, deadline: float):
        self.workload, self.work = workload, work
        self.config, self.argv, self.expect = config, argv, expect
        self.deadline = deadline
        self.env = child_env()
        self.n_jobs = 0
        self.versions: dict = {}

    def _job(self, mode: str, **extra) -> tuple[float, int, dict, str]:
        self.n_jobs += 1
        tag = f"{mode}{self.n_jobs}"
        job = {"mode": mode, "workload": self.workload.name,
               "config": self.config,
               "result": os.path.join(self.work, f"{tag}.result.json"),
               **extra}
        job_path = os.path.join(self.work, f"{tag}.job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        log_path = os.path.join(self.work, f"{tag}.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        with open(log_path, "w") as log:
            try:
                code = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"),
                     job_path], cwd=ROOT, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = -9
        wall = time.perf_counter() - start
        result = {}
        if code == 0 and os.path.isfile(job["result"]):
            with open(job["result"]) as fh:
                result = json.load(fh)
            self.versions = result.get("versions", self.versions)
        with open(log_path, errors="replace") as fh:
            tail = "".join(fh.readlines()[-20:])
        return wall, code, result, tail

    def setup(self) -> float:
        """Time of one set-up job, measured inside the job."""
        _, code, result, tail = self._job("setup")
        if "setup_s" not in result:
            raise HarnessError(f"set-up job failed (exit {code}):\n{tail}")
        return result["setup_s"]

    def command(self, trace: bool) -> dict:
        """One repetition of the workload command, checked and hashed."""
        out = os.path.join(self.work, f"out{self.n_jobs + 1}")
        wall, code, result, tail = self._job(
            "command", argv=self.argv + ["--out", out], trace=trace,
            trace_out=os.path.join(self.work, "trace.json.gz"))
        exit_code = result.get("exit", code if code else 1)
        ops = self.workload.check(out, self.expect)
        if exit_code != 0:
            ops = [(op, False, f"exit code {exit_code}") for op, _, _ in ops]
        rep = {"wall_s": wall, "exit": exit_code,
               "peak_rss_mb": result.get("maxrss_kb", 0) / 1024.0,
               "attempted": len(ops),
               "failed": sum(not ok for _, ok, _ in ops),
               "failures": [f"{op}: {note}" for op, ok, note in ops
                            if not ok],
               "digests": data_digests(out), "trace": trace}
        if "layers" in result:
            rep["layers"] = result["layers"]
            rep["missing"] = result["missing"]
        if rep["failed"] or exit_code != 0:
            rep["log_tail"] = tail
        shutil.rmtree(out, ignore_errors=True)
        return rep


def check_determinism(reps: list[dict], key: str, registry: str) -> list:
    """Compare every repetition's digests with each other and with earlier
    runs of the same source tree, workload and seed."""
    known = {}
    if os.path.isfile(registry):
        with open(registry) as fh:
            known = json.load(fh)
    problems = []
    for rep in reps:
        if rep["exit"] != 0:
            continue
        digest = hashlib.sha256(json.dumps(rep["digests"], sort_keys=True)
                                .encode()).hexdigest()
        if known.setdefault(key, digest) != digest:
            problems.append(f"data digests differ from an earlier repetition "
                            f"({digest[:12]} vs {known[key][:12]})")
    with open(registry, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return problems


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    spec = preflight(workload)
    started = time.monotonic()
    results_dir = os.path.join(HERE, "results")
    work = os.path.join(HERE, "_work",
                        f"{workload.name}-s{args.seed}-t{args.trace}"
                        f"-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        config, argv, expect = plan(workload, args.seed, args.tiny, ROOT,
                                    work)
        runner = Runner(workload, work, config, argv, expect,
                        started + RUN_LIMIT_S)
        setups: list[float] = []
        if args.trace:
            reps = [runner.command(trace=False), runner.command(trace=True)]
            plain, traced = reps
            values = dict(traced.get("layers", {}))
            values["trace.overhead_pct"] = \
                100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
            if os.path.isfile(os.path.join(work, "trace.json.gz")):
                shutil.copy(os.path.join(work, "trace.json.gz"),
                            os.path.join(results_dir,
                                         f"{workload.name}-s{args.seed}"
                                         f".trace.json.gz"))
            wanted = spec["per_layer"]
        else:
            setups = [runner.setup() for _ in range(SETUP_JOBS)]
            reps = []
            t_start = time.monotonic()
            while True:
                reps.append(runner.command(trace=False))
                est = statistics.median(r["wall_s"] for r in reps)
                now = time.monotonic()
                if (now - t_start + est > args.seconds
                        or now + est > started + RUN_LIMIT_S):
                    break
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in reps),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                 for r in reps),
            }
            wanted = spec["end_to_end"]
        tree = tree_digest()
        key = f"{workload.name}|seed={args.seed}|tree={tree}"
        if args.tiny:
            key += "|tiny"
        problems = check_determinism(
            reps, key, os.path.join(results_dir, "digests.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values["success_rate"] = 1.0 - failed / max(attempted, 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    summary = {"correct": failed == 0 and not problems,
               "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "summary": summary, "workload": workload.name, "why": workload.why,
        "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": bool(args.trace),
        "tiny": bool(args.tiny), "argv": argv, "tree": tree,
        "environment": {"nproc": os.cpu_count(), **runner.versions,
                        "thread_pins": THREAD_PINS, "workers": 1},
        "setup_samples_s": setups, "repetitions": reps,
        "determinism_problems": problems,
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
        "layer_map": LAYER_MAP,
    }
    name = (f"{workload.name}-s{args.seed}-trace{int(args.trace)}"
            f"{'-tiny' if args.tiny else ''}.json")
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload for the self-check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for rep in record["repetitions"]:
        print(f"[{record['workload']}] wall {rep['wall_s']:.3f} s, exit "
              f"{rep['exit']}, {rep['failed']}/{rep['attempted']} failed"
              f"{', traced' if rep['trace'] else ''}")
        for line in rep["failures"][:10]:
            print(f"  failed: {line}")
    for line in record["determinism_problems"]:
        print(f"  {line}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
