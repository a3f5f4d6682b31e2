"""One benchmark job in a fresh process: a set-up or a CLI command.

Usage: python3 child.py JOB.json

The job file names the mode (``setup`` or ``command``), the workload and
its config, the CLI argv, whether to trace, and where to write the result.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_setup(job: dict) -> dict:
    """Import condlab and build the workload's problem; time both."""
    import condlab.cli  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS
    with open(job["config"]) as fh:
        cfg = json.load(fh)
    WORKLOADS[job["workload"]].setup(cfg, os.path.dirname(job["config"]))
    return {"setup_s": time.perf_counter() - T0}


def run_command(job: dict) -> dict:
    """Run ``condlab.cli.main(argv)``, traced or not."""
    import condlab.cli as cli
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(job["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed run, not a harness crash
        traceback.print_exc()
        code = 1
    out = {"exit": code}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["missing"] = tracer.missing
        tracer.dump(job["trace_out"])
    return out


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    result = run_setup(job) if job["mode"] == "setup" else run_command(job)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = _versions()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
