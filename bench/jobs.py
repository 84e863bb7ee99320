"""Workloads of the stablebounds benchmark and the checks on their outputs.

A job is one ``stablebounds.cli.run(config)`` plus ``render`` (kind
``cli``), or one library cross-check of the chaos family (kind
``chaos_check``). The workload seed only orders the jobs, except that
``learn`` also takes its CLI ``--seed`` from it. A ``hypercube`` repetition
runs the jobs of one M; successive repetitions take the M values in seed
order, so three repetitions cover the workload.

Every job output is compared with the reference stored under
``reference/`` by the tolerance tiers below; byte-level differences of the
rendered CSV are counted separately and are not failures.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
from pathlib import Path

WORKLOADS = ("learn", "hypercube", "collapse")

# One CLI learn seed per stored reference; the workload seed picks one.
LEARN_SEEDS = 16
LEARN_REPS = 2000
LEARN_SANDWICH_REPS = 500

# Explicit, never 0: threads=0 would read WORKBENCH_THREADS and cpu_count().
# One thread: with two, peak RSS on hypercube depends on how the two grid
# points' n=18 arrays overlap in time, and varied by 6% between runs.
THREADS = 1

# Tolerance tiers. Strings, booleans and integers must match exactly. Floats
# must agree to the oracle's own 1e-10 relative, with an absolute floor for
# values that are rounding noise around 0 (telescope deviations, slacks).
# NaN (lower_ratio when p < 8 or p > n) equals NaN.
REL_TOL = 1e-10
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The parts of the speed probe (probe.py) that scale each workload's times:
# those doing the kind of work its time goes to. hypercube's time goes to
# numpy on arrays of MBs, which slows less than interpreted code when the
# host is busy: a 1 % slower whole probe went with a 0.45-0.6 % slower
# hypercube repetition, so the whole probe overcorrected it. learn and
# collapse mix interpreted Python with numpy calls on small and large arrays.
ALL_PROBE_PARTS = ("python", "small_arrays", "large_arrays")
PROBE_PARTS = {"learn": ALL_PROBE_PARTS, "hypercube": ("large_arrays",),
               "collapse": ALL_PROBE_PARTS}

_COLLAPSE_GRID = {"beta": [0.1, 1, 10], "p": [2, 4, 8, 16, 32, 64]}
_COLLAPSE_M = [0, 0.1, 1, 10]
# Small n: per-call overhead of collapse_lp, one job per (n, M).
_COLLAPSE_SMALL_N = list(range(2, 129, 2))
# Large n: array work in collapse_lp, one job per n over the whole grid.
_COLLAPSE_LARGE_N = [16384, 32768]


def _cli(job_id: str, config: dict) -> dict:
    return {"id": job_id, "kind": "cli", "config": {**config, "threads": THREADS}}


def learn_jobs(cli_seed: int) -> list[dict]:
    return [_cli(f"learn/{learner}/n{n}/s{cli_seed}",
                 {"command": "learn",
                  "grid": {"learner": [learner], "n": [n], "delta": [0.1]},
                  "reps": LEARN_REPS, "sandwich_reps": LEARN_SANDWICH_REPS,
                  "seed": cli_seed})
            for learner in ("constant", "clipped_mean", "shrunk_mean", "memorizer")
            for n in (50, 100)]


_HYPERCUBE_M = [0, 1, 10]


def hypercube_jobs(M_values: list) -> list[dict]:
    jobs = []
    for n in (14, 16, 18):
        for M in M_values:
            jobs.append(_cli(f"partition/n{n}/M{M}",
                             {"command": "partition",
                              "grid": {"n": [n], "M": [M], "beta": [1], "p": [2, 8]}}))
            jobs.append({"id": f"chaos_check/n{n}/M{M}", "kind": "chaos_check",
                         "n": n, "M": M, "beta": 1, "p": [2, 8]})
    return jobs


def collapse_jobs() -> list[dict]:
    jobs = [_cli(f"chaos/n{n}/M{M}",
                 {"command": "chaos", "grid": {"n": [n], "M": [M], **_COLLAPSE_GRID}})
            for n in _COLLAPSE_SMALL_N for M in _COLLAPSE_M]
    jobs += [_cli(f"chaos/n{n}",
                  {"command": "chaos", "grid": {"n": [n], "M": _COLLAPSE_M, **_COLLAPSE_GRID}})
             for n in _COLLAPSE_LARGE_N]
    return jobs


def jobs_for(workload: str, seed: int, repetition: int = 0) -> list[dict]:
    """The job list of repetition ``repetition`` of ``workload``, in seed order."""
    if workload == "learn":
        jobs = learn_jobs(seed % LEARN_SEEDS)
    elif workload == "hypercube":
        # The cost of a hypercube job depends on n, not on M, so every
        # repetition does the same work; one slice takes about 5 s, where
        # all 18 jobs would leave a run only two repetitions.
        M_order = random.Random(seed).sample(_HYPERCUBE_M, len(_HYPERCUBE_M))
        jobs = hypercube_jobs([M_order[repetition % len(M_order)]])
    elif workload == "collapse":
        jobs = collapse_jobs()
    else:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    random.Random(seed).shuffle(jobs)
    return jobs


def all_jobs(workload: str) -> list[dict]:
    """Every distinct job of a workload over all seeds (for the reference)."""
    if workload == "learn":
        return [job for s in range(LEARN_SEEDS) for job in learn_jobs(s)]
    if workload == "hypercube":
        return hypercube_jobs(_HYPERCUBE_M)
    return jobs_for(workload, 0)


# ---------------------------------------------------------------------------
# reference and checks
# ---------------------------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, entries: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    data = json.dumps(entries, sort_keys=True, indent=0).encode("utf-8")
    # mtime=0 keeps the file byte-identical when regenerated from the same code
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)


def _value(token: str):
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """(comment lines, rows) of a rendered CSV table."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    reader = csv.reader(body)
    header = next(reader)
    rows = []
    for fields in reader:
        if len(fields) != len(header):
            raise ValueError(f"row has {len(fields)} fields, header {len(header)}")
        rows.append({k: _value(v) for k, v in zip(header, fields)})
    return comments, rows


def same_value(a, b) -> bool:
    """Equality under the tolerance tiers."""
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(a) is type(b) and a == b


def _diff_rows(rows: list[dict], expected: list[dict]) -> str | None:
    if len(rows) != len(expected):
        return f"{len(rows)} rows, reference has {len(expected)}"
    for index, (row, ref) in enumerate(zip(rows, expected)):
        if row.keys() != ref.keys():
            return f"row {index}: columns differ from the reference"
        for key in ref:
            if not same_value(row[key], ref[key]):
                return f"row {index} {key}: {row[key]!r} != reference {ref[key]!r}"
    return None


def own_failure(job: dict, reply: dict) -> str | None:
    """The checks a job needs no reference for: no error, exit code 0, every
    row ok, and enumeration matching the collapse."""
    if "error" in reply:
        return reply["error"].strip().splitlines()[-1]
    if job["kind"] == "cli":
        if reply["exit_code"] != 0:
            return f"exit code {reply['exit_code']}"
        try:
            _, rows = parse_csv(reply["output"])
        except (ValueError, StopIteration) as exc:
            return f"unparseable output: {exc}"
        return None if all(row.get("ok") is True for row in rows) else "a row has ok false"
    if not reply["passed"]:
        return "verify_chaos_conditions did not pass"
    for p, enumerated, collapsed in reply["norms"]:
        if not math.isclose(enumerated, collapsed, rel_tol=REL_TOL, abs_tol=0.0):
            return f"p={p}: enumerate_lp {enumerated!r} != chaos_lp {collapsed!r}"
    return None


def check(job: dict, reply: dict, ref: dict | None) -> tuple[str | None, bool]:
    """(failure reason or None, whether the bytes differ from the reference)."""
    reason = own_failure(job, reply)
    if reason is not None:
        return reason, False
    if ref is None:
        return "no stored reference for this job", False
    if job["kind"] == "cli":
        comments, rows = parse_csv(reply["output"])
        ref_comments, ref_rows = parse_csv(ref["output"])
        byte_mismatch = reply["output"] != ref["output"]
        if comments != ref_comments:
            return f"header {comments} != reference {ref_comments}", byte_mismatch
        return _diff_rows(rows, ref_rows), byte_mismatch
    values = [reply["worst"], *(v for norm in reply["norms"] for v in norm)]
    expected = [ref["worst"], *(v for norm in ref["norms"] for v in norm)]
    if len(values) != len(expected) or not all(map(same_value, values, expected)):
        return f"norms {reply['norms']} differ from reference {ref['norms']}", False
    return None, values != expected
