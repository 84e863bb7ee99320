"""One benchmark repetition in a fresh process.

Started by ``run.py`` with ``src`` on PYTHONPATH. It times the import of
stablebounds, then answers one JSON job per stdin line with one JSON reply
per stdout line, until it reads ``{"op": "exit"}``; its last line reports
peak RSS and, when traced, the per-layer metrics. Spans are written to the
``--spans`` file after the last job. ``{"op": "probe"}`` runs the speed
probe (``probe.py``) and replies with the time of each of its parts; the
ready message carries the probes taken right after the import, for scaling
``setup_s``.
"""

import sys
import time

_t0 = time.perf_counter()
import stablebounds  # noqa: E402  (the import is what setup_s measures)
from stablebounds import chaos, cli, oracle  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import probe as speed  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_PROBES = 3    # timed probes after the import, after one untimed


def execute(job: dict) -> dict:
    try:
        if job["kind"] == "cli":
            config = job["config"]
            try:
                rows, exit_code = cli.run(config)
            except cli.ConfigError:
                return {"exit_code": 1, "error": traceback.format_exc()}
            return {"exit_code": exit_code,
                    "output": cli.render(config["command"], rows, config, "csv")}
        params = chaos.ChaosParams(n=job["n"], M=job["M"], beta=job["beta"])
        report = chaos.verify_chaos_conditions(params)
        f = chaos.chaos_sum_function(params)
        return {"passed": report.passed, "worst": report.worst,
                "norms": [[p, oracle.enumerate_lp(f, p), chaos.chaos_lp(params, p)]
                          for p in job["p"]]}
    except Exception:  # the server keeps answering; run.py fails the job
        return {"error": traceback.format_exc()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="the src directory under test")
    parser.add_argument("--spans", default=None, help="trace to this file")
    args = parser.parse_args()
    channel = sys.stdout
    sys.stdout = sys.stderr          # nothing but replies on the channel

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    src = Path(args.src).resolve()
    if src not in Path(stablebounds.__file__).resolve().parents:
        print(f"stablebounds imported from {stablebounds.__file__}, not {src}",
              file=sys.stderr)
        return 1
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(stablebounds)
    speed.probe()    # first touch of the probe's code and buffers
    setup_probes = [speed.probe() for _ in range(SETUP_PROBES)]
    send({"setup_s": SETUP_S, "setup_probe_s": setup_probes, "pid": os.getpid(),
          "versions": {"python": sys.version.split()[0],
                       "numpy": sys.modules["numpy"].__version__,
                       "scipy": sys.modules["scipy"].__version__,
                       "stablebounds": stablebounds.__version__}})
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("op") == "exit":
            break
        if message.get("op") == "probe":
            send({"probe_s": speed.probe()})
            continue
        if tracer is not None:
            tracer.begin_job(message["id"])
        send(execute(message))
    final = {"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        final["layers"] = tracing.layer_metrics(tracer.spans)
        final["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
