"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

Runs small jobs of each kind at threads 1 and 2, first untraced and then
with the tracer installed, and checks that:

* traced replies equal untraced replies exactly;
* at threads 1, the self times of a job's spans add up to the time of its
  root spans (at threads 2 pool spans overlap, so only containment in the
  parent span is checked);
* the work counts derived from call arguments match hand-computed values.

Exits 0 when every check passes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import server  # noqa: E402  (imports stablebounds from src)
import tracer as tracing  # noqa: E402

LEARN_REPS, SANDWICH_REPS, LEARN_N = 1000, 20, 12

JOBS = [
    {"id": "learn", "kind": "cli",
     "config": {"command": "learn", "grid": {"learner": ["clipped_mean", "memorizer"],
                                             "n": [LEARN_N], "delta": [0.1]},
                "reps": LEARN_REPS, "sandwich_reps": SANDWICH_REPS, "seed": 3}},
    {"id": "partition", "kind": "cli",
     "config": {"command": "partition",
                "grid": {"n": [8], "M": [0, 1], "beta": [1], "p": [2, 8]}}},
    {"id": "chaos", "kind": "cli",
     "config": {"command": "chaos",
                "grid": {"n": [12, 40], "M": [0, 1], "beta": [1], "p": [2, 8]}}},
    {"id": "chaos_check", "kind": "chaos_check", "n": 8, "M": 1, "beta": 1, "p": [2, 8]},
]

# per job: metric -> value computed by hand from the job's arguments
EXPECTED = {
    "learn": {"lab.fits": 2 * (LEARN_REPS + SANDWICH_REPS),
              "lab.refits": 2 * SANDWICH_REPS * LEARN_N * (2 - 1)},
    "partition": {"partition.enum_rows": 2 * 2 * 2 * 2 ** 8,
                  "oracle.sign_rows": 2 * 2 * 2 * 2 ** 8},
    # per (n, M): 4 collapse_lp calls at p=2, 5 at p=8 (lower_ratio), n+1 support each
    "chaos": {"oracle.collapse_lp.calls": 2 * 2 * (4 + 5),
              "oracle.collapse_support": 2 * (4 + 5) * (13 + 41)},
    "chaos_check": {"oracle.enumerate_lp.calls": 2, "oracle.sign_rows": 2 ** 7 + 2 * 2 ** 8},
}


def variants():
    for job in JOBS:
        for threads in (1, 2):
            if job["kind"] == "cli":
                yield threads, {**job, "config": {**job["config"], "threads": threads}}
            elif threads == 1:
                yield threads, job


def main() -> int:
    failures = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
        print(("ok    " if condition else "FAIL  ") + message)

    plain = {}
    for threads, job in variants():
        plain[job["id"], threads] = server.execute(job)
    tracer = tracing.Tracer()
    tracer.install(server.stablebounds)
    for threads, job in variants():
        key = f"{job['id']}/threads{threads}"
        tracer.begin_job(key)
        reply = server.execute(job)
        expect("error" not in reply, f"{key}: runs without error")
        expect(reply == plain[job["id"], threads], f"{key}: traced reply equals untraced")
        spans = [s for s in tracer.spans if s[5] == key]
        own = tracing.self_times(spans)
        root_time = sum(s[3] - s[2] for s in spans if s[4] is None)
        total_self = sum(own.values())
        if threads == 1:
            expect(abs(total_self - root_time) <= 1e-9,
                   f"{key}: self times sum to span time ({total_self:.9f} vs {root_time:.9f})")
        else:
            by_id = {s[0]: s for s in spans}
            expect(all(by_id[s[4]][2] <= s[2] and s[3] <= by_id[s[4]][3]
                       for s in spans if s[4] is not None),
                   f"{key}: every span lies within its parent")
        layers = tracing.layer_metrics(spans)
        for name, value in EXPECTED[job["id"]].items():
            expect(layers[name] == value, f"{key}: {name} = {layers[name]} (expected {value})")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
