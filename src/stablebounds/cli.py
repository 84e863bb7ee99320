"""Batch front end: grid runs of bound comparisons, chaos certificates,
partition verifications and learner experiments, emitting deterministic
CSV or JSON.

One JSON config document describes a run; every flag can also be given on
the command line and the command line wins. Grid points execute in a thread
pool, but rows are keyed to their position in the sorted grid, so output
files are byte-identical for any thread count.

Each command is declared once, in ``_COMMANDS``: its grid keys, its row
evaluator and its provenance. A row holds the command, the provenance, the
grid point in grid-key order, then the command's own columns.

``argparse``, ``json`` and the thread pool are imported where a run first
uses them, so a library caller of ``run`` and a CSV ``render`` loads none.

Exit codes: 0 all assertions in the run passed, 1 configuration error
(including inputs whose arithmetic leaves the float range, such as an
OverflowError, and a run that ends in a MemoryError or RuntimeError),
2 assertion failure.
"""

from __future__ import annotations

import os
import sys
from itertools import product

import numpy as np

from . import bounds as bd
from . import chaos as ch
from . import lab
from . import partition as pt
from .oracle import _check_int, _check_seed

GENERATOR_ID = "philox4x64"

_LEARNERS = {
    "constant": lambda: (lab.constant_learner(), lab.bernoulli_labels()),
    "clipped_mean": lambda: (lab.clipped_mean_learner(), lab.bernoulli_labels()),
    "shrunk_mean": lambda: (lab.shrunk_mean_learner(), lab.bernoulli_labels()),
    "memorizer": lambda: (lab.memorizer_learner(), lab.labelled_pair()),
}

_INT_KEYS = {"n"}
_STR_KEYS = {"learner"}


class ConfigError(Exception):
    """Anything wrong with the requested run (exit code 1)."""


def _mix_seed(seed: int, index: int) -> int:
    """Stable per-task stream key derived from the master seed."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    return x


def _parse_gamma(token, n: int) -> float:
    """gamma grid entries may be numbers or expressions 'c/n', 'c/sqrt(n)'."""
    if isinstance(token, (int, float)):
        return float(token)
    text = str(token).strip().replace(" ", "")
    for suffix, denom in (("/sqrt(n)", float(np.sqrt(n))), ("/n", float(n))):
        if text.endswith(suffix):
            head = text[: -len(suffix)] or "1"
            try:
                return float(head) / denom
            except ValueError as exc:
                raise ConfigError(f"bad gamma expression {token!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad gamma value {token!r}") from exc


def _coerce(key: str, value):
    if key in _STR_KEYS:
        name = str(value)
        if name not in _LEARNERS:
            raise ConfigError(f"unknown learner {name!r}; have {sorted(_LEARNERS)}")
        return name
    if key == "gamma":
        return value if isinstance(value, str) else float(value)
    if key in _INT_KEYS:
        iv = _integer(key, value)
        if iv < 1:
            raise ConfigError(f"{key} must be >= 1, got {iv}")
        return iv
    return float(value)


def _integer(key: str, value) -> int:
    """An integer setting: an int, a float equal to one, or a string that
    ``int`` reads; 2.5, nan, '2.5' and 'abc' are refused, not truncated (inf
    overflows, an ArithmeticError)."""
    try:
        iv = int(value)
    except (TypeError, ValueError):
        iv = None
    if iv is None or (isinstance(value, float) and iv != value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return iv


def _sort_key(point: tuple):
    return tuple((0, v) if isinstance(v, (int, float)) else (1, str(v))
                 for v in point)


def build_grid(command: str, grid: dict) -> list[tuple]:
    keys = _COMMANDS[command][0]
    unknown = set(grid) - set(keys)
    if unknown:
        raise ConfigError(f"unknown grid keys for {command}: {sorted(unknown)}")
    axes = []
    for key in keys:
        values = grid.get(key)
        if not values:
            raise ConfigError(f"grid for {command!r} needs non-empty {key!r}")
        axes.append([_coerce(key, v) for v in values])
    points = [tuple(p) for p in product(*axes)]
    points.sort(key=_sort_key)
    return points


# ---------------------------------------------------------------------------
# per-command row evaluators
# ---------------------------------------------------------------------------

def _row_bounds(point, cfg, seed):
    n, gamma_tok, L, delta = point
    gamma = _parse_gamma(gamma_tok, n)
    inputs = bd.BoundInputs(n=n, gamma=gamma, L=L, delta=delta)
    values = {k: bd.generalization_bound(k, inputs).value
              for k in bd.GENERALIZATION_KINDS}
    ok = all(np.isfinite(v) and v >= 0 for v in values.values())
    if n >= 3:
        ok = ok and values["single_log"] <= values["fv2019"] * (1 + 1e-12)
    return {"gamma": gamma, **values, "ok": ok}


def _row_chaos(point, cfg, seed):
    n, M, beta, p = point
    if M == 0 and beta == 0:
        raise ConfigError("chaos grid contains the degenerate point M = beta = 0")
    params = ch.ChaosParams(n=n, M=M, beta=beta)
    norm = ch.chaos_lp(params, p)
    bound = bd.dyadic_sum_moment_bound(p, n, beta, M).value
    dominance_ok = norm <= bound * (1 + 1e-12)
    if 8 <= p <= n:
        ratio = ch.lower_ratio(params, p)
        lower_ok = ratio >= float(cfg.get("min_lower_ratio", 0.02))
    else:
        ratio = float("nan")
        lower_ok = True
    cert = ch.paley_zygmund_certificate(params, max(p, 2.0))
    sm = ch.chaos_lp(params, 2.0)
    smb = bd.second_moment_bound(n, beta, M)
    sm_ok = sm <= smb * (1 + 1e-12)
    return {"norm": norm, "dyadic_bound": bound, "dominance_ok": dominance_ok,
            "lower_ratio": ratio, "lower_ok": lower_ok, "pz_lhs": cert.lhs,
            "pz_rhs": cert.rhs, "pz_ok": cert.valid, "second_moment": sm,
            "second_moment_bound": smb, "second_moment_ok": sm_ok,
            "ok": dominance_ok and lower_ok and cert.valid and sm_ok}


def _row_partition(point, cfg, seed):
    n, M, beta, p = point
    params = ch.ChaosParams(n=n, M=M, beta=beta)
    rep = pt.verify_level_bounds(params, p)     # checks p before it enumerates
    tel = pt.verify_telescoping(params)
    return {"telescope_dev": tel.max_deviation, "telescope_ok": tel.passed,
            "term_violations": rep.terms.violations,
            "block_violations": rep.blocks.violations,
            "level_violations": rep.levels.violations,
            "chain_ok": rep.passed, "ok": tel.passed and rep.passed}


def _row_learn(point, cfg, seed):
    learner_name, n, delta = point
    sandwich_reps = _integer("sandwich_reps", cfg.get("sandwich_reps", 500))
    _check_int("sandwich_reps", sandwich_reps, 0)
    spec, dist = _LEARNERS[learner_name]()
    lab.check_deterministic(spec, dist, n, seed=seed)
    reps = int(cfg["reps"])
    table = lab.gap_quantiles(spec, dist, n, reps, [delta], seed=seed)
    row = table.rows[0]
    sandwich_reps = min(reps, sandwich_reps)
    sweep = lab.sandwich_sweep(spec, dist, n, sandwich_reps, seed=_mix_seed(seed, 1))
    return {"reps": reps, "seed": seed, "gamma": table.gamma,
            "quantile": row.quantile, "bousquet02": row.bousquet02,
            "fv2018": row.fv2018, "fv2019": row.fv2019,
            "single_log": row.single_log, "moment_tail": row.moment_tail,
            "quantile_ok": row.dominated, "sandwich_reps": sweep.reps,
            "sandwich_violations": sweep.violations,
            "sandwich_max_slack": sweep.max_slack,
            "sandwich_ok": sweep.passed, "ok": row.dominated and sweep.passed}


def _row_tails(point, cfg, seed):
    a, b, p, delta = point
    moment = bd.moments_from_tail(a, b, p)
    tail = bd.tail_from_moments(a, b, delta)
    ok = bool(np.isfinite(moment) and np.isfinite(tail) and moment >= 0 and tail >= 0)
    return {"moment_bound": moment, "tail_bound": tail, "ok": ok}


# command: (grid keys, row evaluator, provenance)
_COMMANDS = {
    "bounds": (("n", "gamma", "L", "delta"), _row_bounds, "exact"),
    "chaos": (("n", "M", "beta", "p"), _row_chaos, "exact"),
    "partition": (("n", "M", "beta", "p"), _row_partition, "exact"),
    "learn": (("learner", "n", "delta"), _row_learn, "montecarlo"),
    "tails": (("a", "b", "p", "delta"), _row_tails, "exact"),
}


# ---------------------------------------------------------------------------
# run + output
# ---------------------------------------------------------------------------

def run(config: dict) -> tuple[list[dict], int]:
    """Execute one experiment config; returns (rows, exit_code). There is at
    least one row, since ``build_grid`` rejects an empty axis."""
    try:
        command = config.get("command")
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}; have {sorted(_COMMANDS)}")
        keys, evaluator, provenance = _COMMANDS[command]
        if provenance == "montecarlo":
            if "seed" not in config:
                raise ConfigError(f"command {command!r} is stochastic and needs a seed")
            if _integer("reps", config.get("reps", 0)) < 1000:
                raise ConfigError("learn requires reps >= 1000")
        grid = config.get("grid") or {}
        points = build_grid(command, grid)
        threads = _resolve_threads(config.get("threads", 0))
        seed = _integer("seed", config.get("seed", 0))
        _check_seed(seed)

        def work(item):
            index, point = item
            return {"command": command, "provenance": provenance, **dict(zip(keys, point)),
                    **evaluator(point, config, _mix_seed(seed, index))}

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(work, enumerate(points)))
        else:
            rows = [work(item) for item in enumerate(points)]
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError(str(exc)) from exc
    except (ArithmeticError, MemoryError, RuntimeError) as exc:
        # a value left the float range, or the run ran out of memory or failed at run time
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    exit_code = 0 if all(row["ok"] for row in rows) else 2
    return rows, exit_code


def _resolve_threads(value) -> int:
    threads = _integer("threads", value)
    if threads == 0:
        env = os.environ.get("WORKBENCH_THREADS", "")
        threads = _integer("WORKBENCH_THREADS", env) if env.strip() else (os.cpu_count() or 1)
    if threads < 1:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    return threads


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_value(value):
    """Non-finite floats (e.g. lower_ratio off its p range) become null."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def render(command: str, rows: list[dict], config: dict, fmt: str) -> str:
    """The rows of one ``run`` as CSV or JSON; the header is the first row's keys."""
    header = list(rows[0])
    provenance = None
    if _COMMANDS[command][2] == "montecarlo":
        provenance = {"seed": int(config.get("seed", 0)),
                      "reps": int(config.get("reps", 0)),
                      "generator": GENERATOR_ID}
    if fmt == "csv":
        lines = []
        if provenance is not None:
            lines.append("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row[col]) for col in header))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json
        doc = {"command": command}
        if provenance is not None:
            doc["provenance"] = provenance
        doc["rows"] = [{col: _json_value(row[col]) for col in header} for row in rows]
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _split_tokens(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok.strip()]


def build_config(argv: list[str]) -> dict:
    import argparse
    import json

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse defaults to exit code 2; we use 1
            raise ConfigError(message)

    parser = _Parser(prog="stablebounds",
                     description="verification workbench for stability bounds")
    sub = parser.add_subparsers(dest="command")
    for command, (keys, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, add_help=True)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
        p.add_argument("--threads", type=int, default=None)
        for key in keys:
            p.add_argument(f"--{key}", default=None,
                           help=f"comma-separated grid values for {key}")
    args = parser.parse_args(argv)
    if args.command is None:
        raise ConfigError(f"a command is required ({'|'.join(_COMMANDS)})")

    config: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {args.config!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
    if config.get("command") not in (None, args.command):
        raise ConfigError(f"config is for command {config.get('command')!r}, "
                          f"got {args.command!r} on the command line")
    config["command"] = args.command
    for name, value in (("seed", args.seed), ("reps", args.reps),
                        ("out", args.out), ("format", args.fmt),
                        ("threads", args.threads)):
        if value is not None:
            config[name] = value
    grid = dict(config.get("grid") or {})
    for key in _COMMANDS[args.command][0]:
        raw = getattr(args, key)
        if raw is not None:
            grid[key] = _split_tokens(raw)
    config["grid"] = grid
    return config


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        rows, exit_code = run(config)
        text = render(config["command"], rows, config,
                      config.get("format", "csv"))
        out = config.get("out")
        if out:
            try:
                with open(out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output {out!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
