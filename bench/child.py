"""Fresh-interpreter probe: set-up time and, optionally, peak RSS of one run.

Run as ``python3 child.py '<job json>'``. Set-up time covers importing
``gaitcadence.cli`` and building the config, as a ``gaitcadence run`` user
pays it. With ``"run": true`` the child then runs the workload once through
``run_pipeline`` and reports its own ``ru_maxrss``. The last line of
standard output is one JSON object.
"""

import json
import resource
import sys
import time


def main(job: dict) -> None:
    sys.path.insert(0, job["src"])
    t0 = time.perf_counter()
    import gaitcadence.cli  # noqa: F401  (the import is what is timed)
    from gaitcadence.config import load_config
    cfg = load_config(hop=job["hop"])
    result = {"setup_s": time.perf_counter() - t0}
    if job["run"]:
        from gaitcadence.pipeline import run_pipeline
        run_pipeline(cfg, job["csv"], job["labels"], job["outdir"],
                     export_kinds=tuple(job["export_kinds"]),
                     export_format=job["export_format"])
        # Linux reports ru_maxrss in KiB.
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
