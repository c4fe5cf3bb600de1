"""One join job in a fresh process, as a CLI user would run it.

    python3 perfbench/job.py SPEC.json

SPEC names the input CSVs and output paths.  The process times its own
``import fuzzyjoin`` in CPU seconds, then starts a calibrator on its core
(calib.py) and times ``run_pipeline`` (ingest to written joins.csv and
solution.txt) in CPU seconds scaled to the reference core speed.  It prints
one JSON line with the timings, the job's raw CPU and wall seconds and its
peak RSS.  With ``"import_only": true`` it stops after the import.  With
``"trace": true`` it wraps the program's module functions (see spans.py) and
adds the per-layer metrics.
"""

import time

t0 = time.process_time()
import fuzzyjoin  # noqa: E402

IMPORT_S = time.process_time() - t0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calib import REF_RATE, Calibrator  # noqa: E402
from fuzzyjoin.pipeline import RunConfig, run_pipeline  # noqa: E402


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"import_s": IMPORT_S, "module": fuzzyjoin.__file__}
    if not spec.get("import_only"):
        cal = Calibrator()
        try:
            result.update(_job(spec, cal))
        finally:
            cal.stop()
    print(json.dumps(result))


def _job(spec: dict, cal: Calibrator) -> dict:
    cfg = RunConfig(
        left_path=spec["left"],
        right_path=spec["right"],
        column=None if spec["multi"] else "name",
        multi=spec["multi"],
        tau=spec["tau"],
        threads=1,
        out_path=spec["joins"],
        solution_path=spec["solution"],
        manifest_path=spec["manifest"],
    )
    tracer = None
    if spec["trace"]:
        from spans import Tracer, read_truth

        tracer = Tracer(read_truth(spec["truth"]))
        tracer.install()
    since = cal.snapshot()
    w, t = time.perf_counter(), time.process_time()
    outcome = run_pipeline(cfg)
    cpu_s, wall_s = time.process_time() - t, time.perf_counter() - w
    result = {
        "job_s": cpu_s * cal.rate(since) / REF_RATE,
        "job_cpu_s": cpu_s,
        "job_wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "estimated_precision": outcome.manifest["estimated_precision"],
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    main(sys.argv[1])
