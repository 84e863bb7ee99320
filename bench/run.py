"""Run one workload of the stablebounds benchmark and print its metrics.

    python3 bench/run.py --workload learn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition of the workload's job list
runs in a fresh server process (``server.py``), started one at a time, so
the oracle's sign-matrix cache starts cold and peak RSS covers one
repetition. One client submits each job only after the previous reply has
been checked (a closed loop with one client). Repetitions continue until
``--seconds`` would be exceeded, with at least two.

The host's speed drifts by tens of percent within minutes, so every time
is reported at a reference speed: measured time * reference probe time /
probe time, where the probe (``probe.py``) is a fixed amount of work run in
the same server between jobs, at least every ``PROBE_EVERY_S`` of job time.
``wall_s`` and the per-layer times use the mean time of the workload's probe
parts (``jobs.PROBE_PARTS``) over the repetition, ``setup_s`` the mean time
of the whole probe right after the import. The measured times are printed
beside them and kept in the ``--record`` file.

With ``--trace 0`` the last line carries the end-to-end metrics (medians
over repetitions); with ``--trace 1`` repetitions alternate traced and
untraced servers and the last line carries the per-layer metrics, including
the tracing overhead. ``--record PATH`` appends the full record of the run,
with machine metadata and every repetition, as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import jobs as workloads
import probe as speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 2
MIN_TRACED_REPS = 4         # two traced, two untraced
REPETITION_TIMEOUT_S = 150  # a hung server is killed, its open jobs fail
PROBE_EVERY_S = 0.5         # job time between two speed probes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ServerError(Exception):
    """The server process did not come up."""


class Server:
    """A fresh stablebounds process answering one job per line."""

    def __init__(self, spans: Path | None):
        command = [sys.executable, str(BENCH / "server.py"), "--src", str(SRC)]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._watchdog = threading.Timer(REPETITION_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    def request(self, message: dict) -> dict | None:
        """Send one message and read the reply; None once the server is gone."""
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            return None
        return self.read()

    def read(self) -> dict | None:
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._watchdog.cancel()
        self._watchdog.join()
        self.proc.stdout.close()


def _probe(server: Server, probes: list[dict]) -> None:
    """Run one speed probe in the server and keep its part times."""
    reply = server.request({"op": "probe"})
    if reply is not None:    # a server that is gone fails the next job
        probes.append(reply["probe_s"])


def repetition(job_list: list[dict], reference: dict, spans: Path | None,
               probe_parts: tuple) -> dict:
    """Run the job list once in a fresh server; time and check every job.

    The wall time is the sum over jobs of submit-to-verified time, which
    leaves out the probes run between jobs.
    """
    server = Server(spans)
    try:
        ready = server.read()
        if ready is None:
            raise ServerError(f"server exited with code {server.proc.wait()} before "
                              "it was ready")
        failures = []
        mismatches = 0
        probes = []
        wall = 0.0
        since_probe = PROBE_EVERY_S
        for index, job in enumerate(job_list):
            if since_probe >= PROBE_EVERY_S:
                since_probe = 0.0
                _probe(server, probes)
            submitted = perf_counter()
            reply = server.request(job)
            if reply is None:
                failures += [(j["id"], "server exited") for j in job_list[index:]]
                break
            reason, byte_mismatch = workloads.check(job, reply, reference.get(job["id"]))
            elapsed = perf_counter() - submitted
            wall += elapsed
            since_probe += elapsed
            mismatches += byte_mismatch
            if reason is not None:
                failures.append((job["id"], reason))
        else:
            _probe(server, probes)
        final = server.request({"op": "exit"}) or {}
    finally:
        server.close()
    scale = speed.scale(probes, probe_parts)
    setup_scale = speed.scale(ready["setup_probe_s"], workloads.ALL_PROBE_PARTS)
    return {"traced": spans is not None, "wall_s": wall * scale,
            "setup_s": ready["setup_s"] * setup_scale,
            "peak_rss_mb": final.get("maxrss_mb", 0.0),
            "measured_wall_s": wall, "measured_setup_s": ready["setup_s"],
            "scale": scale, "probe_s": probes, "setup_probe_s": ready["setup_probe_s"],
            "attempted": len(job_list), "failed": len(failures),
            "failures": failures, "digest_mismatches": mismatches,
            "layers": final.get("layers"), "spans": final.get("spans"),
            "versions": ready["versions"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    reference = workloads.load_reference(workload)
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-{seed}.jsonl"
    reps = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 0
        job_list = workloads.jobs_for(workload, seed, len(reps))
        reps.append(repetition(job_list, reference, spans if traced else None,
                               workloads.PROBE_PARTS[workload]))
        elapsed = perf_counter() - start
        enough = len(reps) >= (MIN_TRACED_REPS if trace else MIN_REPS)
        if enough and elapsed + elapsed / len(reps) > seconds:
            return reps


def _median(values):
    return statistics.median(values) if values else 0.0


def metrics(reps: list[dict], trace: bool) -> dict:
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        return {name: {"value": _median([r[name] for r in plain]), "unit": unit}
                for name, unit in END_TO_END.items()}
    traced = [r for r in reps if r["traced"] and r["layers"] is not None]
    out = {}
    for name, unit in per_layer_units().items():
        if name == "cli.output_digest_mismatches":
            value = max(r["digest_mismatches"] for r in reps)
        elif name == "trace.wall_s":
            value = _median([r["wall_s"] for r in traced])
        elif name == "trace.overhead_s":
            value = (_median([r["wall_s"] for r in traced])
                     - _median([r["wall_s"] for r in plain]))
        elif unit == "s":
            value = _median([r["layers"][name] * r["scale"] for r in traced])
        else:
            # median_low: a count stays the integer every repetition measured
            value = statistics.median_low([r["layers"][name] for r in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def machine() -> dict:
    """Metadata recorded with every run."""
    files = sorted((SRC / "stablebounds").rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=False)
        rev = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "git_rev": rev, "src_sha256": digest.hexdigest(),
            "src_loc": loc, "threads": workloads.THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run record here")
    args = parser.parse_args(argv)
    if not (SRC / "stablebounds" / "__init__.py").is_file():
        print(f"error: no stablebounds sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for job_id, reason in [f for r in reps for f in r["failures"]][:10]:
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics(reps, bool(args.trace))}
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **machine(), "versions": reps[0]["versions"]}
    print("meta " + json.dumps(meta))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  jobs {attempted}  threads {workloads.THREADS}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} ratio")
    plain = [r for r in reps if not r["traced"]]
    for name in ("measured_wall_s", "measured_setup_s"):
        print(f"  {name + ' (median, not scaled)':40s} "
              f"{_median([r[name] for r in plain]):.6g} s")
    for part, reference_s in speed.REFERENCE_S.items():
        print(f"  {'probe ' + part + ' (median)':40s} "
              f"{_median([t[part] for r in plain for t in r['probe_s']]):.6g} s"
              f"  (reference {reference_s} s)")
    if args.record:
        record = {**meta, "result": result,
                  "repetitions": [{k: v for k, v in r.items() if k != "versions"}
                                  for r in reps]}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
