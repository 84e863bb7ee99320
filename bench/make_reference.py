"""Regenerate the stored reference outputs of the benchmark jobs.

    python3 bench/make_reference.py [workload ...]

Runs every distinct job of each workload (for ``learn``, under every CLI
seed the workload seed can select) through one untraced server and stores
the replies in ``reference/<workload>.json.gz``. If a job fails its own
checks (an error, a non-zero exit, a row with ok false, enumeration and
collapse that disagree), the workload's reference is left as it was and the
script exits 1. The reference pins the
outputs of the code it was made from: regenerate it only for a change that
is meant to alter outputs, and say so.
"""

import sys

import jobs as workloads
from run import Server


def main(argv: list[str]) -> int:
    failed = 0
    for workload in argv or workloads.WORKLOADS:
        entries = {}
        before = failed
        server = Server(spans=None)
        try:
            if server.read() is None:
                print("error: the server did not start", file=sys.stderr)
                return 1
            for job in workloads.all_jobs(workload):
                reply = server.request(job)
                reason = (workloads.own_failure(job, reply) if reply is not None
                          else "server exited")
                if reason is not None:
                    print(f"FAILED {job['id']}: {reason}", file=sys.stderr)
                    failed += 1
                    continue
                entries[job["id"]] = reply
        finally:
            server.close()
        if failed > before:
            continue
        workloads.save_reference(workload, entries)
        print(f"{workload}: {len(entries)} jobs -> {workloads.reference_path(workload)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
