"""Render ``tests/data/verifier_reference.json``: the ``repr`` of every
hypercube verifier report on a fixed grid.

    PYTHONPATH=src python tests/make_verifier_reference.py

``test_verifier_reference.py`` asserts that the installed code reproduces
every stored ``repr`` exactly, so a rewrite of the enumeration kernels must
keep each float bit-identical.
"""

import json
from pathlib import Path

from stablebounds.chaos import ChaosParams, verify_chaos_conditions
from stablebounds.partition import verify_level_bounds, verify_telescoping

PATH = Path(__file__).parent / "data" / "verifier_reference.json"

NS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
M_BETA = ((0.0, 1.0), (1.0, 1.0), (0.1, 0.3), (10.0, 0.1), (2.5, 7.0))
PS = (2.0, 3.5, 8.0)


def cases():
    """(key, zero-argument call) for every report in the reference."""
    for n in NS:
        for M, beta in M_BETA:
            params = ChaosParams(n, M, beta)
            tag = f"n={n} M={M!r} beta={beta!r}"
            yield f"telescoping {tag}", lambda params=params: verify_telescoping(params)
            for p in PS:
                yield (f"level_bounds {tag} p={p!r}",
                       lambda params=params, p=p: verify_level_bounds(params, p))
            yield f"chaos_conditions {tag}", lambda params=params: verify_chaos_conditions(params)


def main() -> None:
    reference = {key: repr(call()) for key, call in cases()}
    PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} reports to {PATH}")


if __name__ == "__main__":
    main()
