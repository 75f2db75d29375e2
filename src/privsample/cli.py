"""Command-line front end: reproducible experiments over the library.

Subcommands: simulate, sweep-tradeoff, rate-curve, optimize, finite-dp,
validate. Every run records its seed; identical config plus seed
reproduces output files byte for byte. CSV outputs carry a header row and
a trailing metadata comment block; a JSON sidecar (<out>.meta.json)
repeats the metadata. Exit codes: 0 success, 2 validation failure,
3 configuration error or a library precondition broken by the inputs
(ContractViolation), 4 numerical failure (a Cholesky factorization that
fails, or another undefined or overflowing step, named with its step k,
or a leader step that overflows). Exits 3 and 4 print one stderr line and
write no output: every output path and its sidecar is checked before
anything is computed, so an output that cannot be written exits 3 before
any other is written. PRIVSAMPLE_THREADS caps sweep parallelism. On
glibc every command first asks malloc to keep freed blocks of up to 32 MB
for reuse (``_keep_freed_pages``); no output byte or random draw depends
on it.
"""
from __future__ import annotations

import argparse
import copy
import ctypes
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .configio import (
    check_writable,
    checked_count,
    config_hash,
    dump_schedule,
    finite_model_from_config,
    load_json,
    load_schedule,
    system_from_config,
    write_text,
)
from .errors import ConfigError, ContractViolation, NumericalFailure
from .finite import dp_solve
from .lingauss import simulate_batch
from .optimizer import leak_estimate, optimize_lambda
from .policy import degenerate_schedule, open_loop_schedule
from .reconstruct import evaluate_schedule, kalman_additive_baseline, simulate_rollout
from .rngs import substream

# perfbench's traced run rebinds these names on this module and its
# self-test looks them up here; drop them with the next benchmark change.
from .loss import rollout_losses  # noqa: F401
from .optimizer import stackelberg_optimize  # noqa: F401


# glibc's mallopt parameters, and the byte count both are set to: 32 MB,
# glibc's own cap for its dynamic mmap threshold on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BYTES = 32 * 1024 * 1024


def _keep_freed_pages() -> None:
    """Keep freed heap blocks of up to 32 MB for reuse, on glibc only.

    By default glibc maps each block of 128 KB or more on its own and
    unmaps it when it is freed, so every batched step of the finite DP and
    the sweeps' filters faults in fresh pages. Elsewhere this does nothing,
    and calling it again changes nothing further.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _KEEP_BYTES)


def _max_workers() -> int:
    cap = os.environ.get("PRIVSAMPLE_THREADS")
    if cap:
        try:
            n = int(cap)
        except ValueError as exc:
            raise ConfigError(f"PRIVSAMPLE_THREADS must be an integer, got {cap!r}") from exc
        return checked_count(n, "PRIVSAMPLE_THREADS", 1)
    return min(8, os.cpu_count() or 1)


def _write_csv(path, header, rows, meta: dict):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else f"{v}" for v in row))
    lines.append("# metadata")
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    write_text(path, "\n".join(lines) + "\n")
    _write_meta(path, meta)


def _write_meta(path, meta: dict):
    """The JSON sidecar ``<path>.meta.json`` of an output file."""
    write_text(_meta_path(path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _meta_path(path) -> str:
    return str(path) + ".meta.json"


def _outputs(args) -> list:
    """Every file the command writes: each given output path and its sidecar."""
    paths = [getattr(args, flag, None) for flag in ("out", "trace_out", "belief_trace")]
    return [p for path in paths if path for p in (path, _meta_path(path))]


def _meta(args, cfg: dict, extra: dict | None = None) -> dict:
    meta = {
        "config_hash": config_hash(cfg),
        "seed": args.seed,
        "version": __version__,
        "command": args.command,
    }
    if extra:
        meta.update(extra)
    return meta


def _fmt(x, digits=10) -> str:
    return f"{float(x):.{digits}g}"


def _stderr(values: np.ndarray) -> str:
    """Standard error of the mean of ``values``, blank for a single value."""
    if len(values) < 2:
        return ""
    return _fmt(values.std(ddof=1) / np.sqrt(len(values)))


def _parse_grid(text, flag: str) -> list:
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}") from exc


def _checked(v: float, flag: str, zero_ok: bool) -> float:
    """``v`` when finite and positive (non-negative with ``zero_ok``);
    ConfigError naming ``flag`` otherwise."""
    if not (math.isfinite(v) and (v > 0.0 or zero_ok and v == 0.0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ConfigError(f"{flag} value {v:g} must be finite and {sign}")
    return v


def _checked_grid(text, flag: str, zero_ok: bool) -> list:
    """A grid of region sizes f (positive), channel noise variances or
    trade-off weights lambda (non-negative: 0 is an exact observation or
    a free leak), all finite."""
    return [_checked(v, flag, zero_ok) for v in _parse_grid(text, flag)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    system, cfg, horizon = _load_system(args)
    if args.schedule:
        schedule = load_schedule(args.schedule)
        if schedule.horizon < horizon:
            raise ConfigError("schedule horizon shorter than the requested horizon")
        if schedule.n_x != system.n_x:
            raise ConfigError(
                f"--schedule has n_x {schedule.n_x}, the system has n_x {system.n_x}"
            )
    else:
        schedule = degenerate_schedule("always_sample", horizon, system.n_x)
    try:
        states, kept, trace = simulate_rollout(system, schedule, horizon, substream(args.seed, 0))
    except NumericalFailure as exc:
        raise NumericalFailure(f"{exc} in simulate") from exc
    n = system.n
    header = ["k"]
    header += [f"x{i}" for i in range(system.n_x)]
    header += [f"y{i}" for i in range(system.n_y)]
    header += ["N", "z_present"]
    header += [f"x_hat{i}" for i in range(system.n_x)]
    header += [f"y_hat{i}" for i in range(system.n_y)]
    rows = [
        [k, *map(_fmt, states[k]), int(kept[k]), int(kept[k]), *map(_fmt, trace[k, 1, :n])]
        for k in range(horizon + 1)
    ]
    _write_csv(args.out, header, rows, _meta(args, cfg, {"sampling_rate": float(np.mean(kept))}))
    if args.belief_trace:
        header = (
            ["k", "phase"]
            + [f"mean{i}" for i in range(n)]
            + [f"var{i}" for i in range(n)]
            + ["logdet_pyy"]
        )
        rows = [
            [k, phase, *map(_fmt, trace[k, i])]
            for k in range(horizon + 1)
            for i, phase in enumerate(("predicted", "filtered"))
        ]
        _write_csv(args.belief_trace, header, rows, _meta(args, cfg))
    return 0


# ---------------------------------------------------------------------------
# sweep-tradeoff / rate-curve
# ---------------------------------------------------------------------------


def _evaluate_family_rows(system, horizon, args, noise_grid, leak_rollouts):
    """Rows of the three schedule families; the leak columns stay blank
    when ``leak_rollouts`` is None.

    The families run one after another through one thread pool. The
    additive-noise baseline is exact and draws nothing. The open-loop and
    optimized families' evaluation streams are simulated once each and
    their trajectories are shared by every value on the family's grid;
    each value gets its own copy of the generator after that simulation,
    so its draws are the ones it would make on a fresh stream of its own.
    A family's trajectories and tasks are released before the next
    family's stream is simulated, so the sweep holds one family's
    trajectories at a time: (K+1) * rollouts * (n_x + n_y) * 8 bytes,
    16.2 MB at the defaults.

    The pool's tasks evaluate (and optimize) and return the schedule whose
    leak is wanted. The leaks run on the calling thread after each
    family's tasks, in row order, each on a fresh stream (seed, 7). Off
    the scalar case one leak estimate makes tens of thousands of short
    numpy calls on the growing belief; beside another task the two threads
    hand the GIL over at almost every call, so in the pool they ran no
    faster than on one thread and burned more CPU.
    """
    rollouts, seed = checked_count(args.rollouts, "--rollouts", 1), args.seed
    workers = _max_workers()

    def eval_open_loop(f_val, states, rng):
        sched = open_loop_schedule(f_val * np.eye(system.n_x), horizon)
        report = evaluate_schedule(system, sched, horizon, rollouts, rng, states=states)
        return "", report, sched

    def eval_noise(var, *_):
        report = kalman_additive_baseline(system, var * np.eye(system.n_x), horizon, rollouts)
        return "", report, None

    def eval_lambda(lam, states, rng):
        result = optimize_lambda(system, lam, horizon, substream_seed(seed, lam))
        report = evaluate_schedule(system, result.schedule, horizon, rollouts, rng, states=states)
        return lam, report, result.schedule

    def shared(rng, grid):
        """(value, trajectories, generator) per grid value; a family's
        stream, if it has one, is simulated once, when the grid is not
        empty."""
        if rng is None or not grid:
            return [(v, None, None) for v in grid]
        states = simulate_batch(system, horizon, rollouts, rng)
        states.setflags(write=False)
        return [(v, states, copy.deepcopy(rng)) for v in grid]

    def named(family, label, fn, *fn_args):
        try:
            return fn(*fn_args)
        except NumericalFailure as exc:
            raise NumericalFailure(f"{exc} in sweep family {family} {label}") from exc

    def run(task):
        family, label, fn, arg = task
        return (label, *named(family, label, fn, *arg))

    def leak_of(sched):
        if leak_rollouts is None or sched is None:
            return None, None
        return leak_estimate(system, sched, horizon, leak_rollouts, substream(seed, 7))

    f_grid = _checked_grid(args.f_grid, "--f-grid", False)
    lambdas = _checked_grid(args.lambdas, "--lambdas", True)
    families = [
        ("open_loop", "f", eval_open_loop, substream(seed, 100), f_grid),
        ("additive_noise", "var", eval_noise, None, noise_grid),
        ("optimized", "lambda", eval_lambda, substream(seed, 300), lambdas),
    ]
    rows = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for family, name, fn, rng, grid in families:
            try:
                tasks = [(family, f"{name}={a[0]:g}", fn, a) for a in shared(rng, grid)]
            except NumericalFailure as exc:
                raise NumericalFailure(f"{exc} in sweep family {family}'s trajectories") from exc
            results = list(pool.map(run, tasks))
            del tasks  # this family's trajectories go before the next one's
            for param, lam, report, sched in results:
                leak, leak_se = named(family, param, leak_of, sched)
                rows.append(
                    [
                        family,
                        param,
                        _fmt(lam) if lam != "" else "",
                        _fmt(report.mean_x_error),
                        _stderr(report.x_errors),
                        _fmt(report.mean_y_error),
                        _stderr(report.y_errors),
                        _fmt(leak) if leak is not None else "",
                        _fmt(leak_se) if leak_se is not None else "",
                        _fmt(report.sampling_rate),
                    ]
                )
    return rows


def substream_seed(seed: int, lam: float) -> int:
    # stable per-lambda child seed
    return (seed * 1_000_003 + int(round(lam * 1e6))) % (2**63)


def cmd_sweep_tradeoff(args) -> int:
    system, cfg, horizon = _load_system(args)
    noise_grid = _checked_grid(args.noise_grid, "--noise-grid", True)
    leak_rollouts = checked_count(args.leak_rollouts, "--leak-rollouts", 1)
    rows = _evaluate_family_rows(system, horizon, args, noise_grid, leak_rollouts)
    header = [
        "family",
        "f_spec",
        "lambda",
        "mean_x_error",
        "x_error_stderr",
        "mean_y_error",
        "y_error_stderr",
        "mean_leak_nats",
        "leak_stderr",
        "sampling_rate",
    ]
    _write_csv(args.out, header, rows, _meta(args, cfg, {"horizon": horizon}))
    return 0


def cmd_rate_curve(args) -> int:
    system, cfg, horizon = _load_system(args)
    rows = _evaluate_family_rows(system, horizon, args, [], None)
    out_rows = [[r[0], r[1], r[9], r[3], r[4]] for r in rows]
    header = ["family", "f_spec", "sampling_rate", "mean_x_error", "x_error_stderr"]
    _write_csv(args.out, header, out_rows, _meta(args, cfg, {"horizon": horizon}))
    return 0


# ---------------------------------------------------------------------------
# optimize / finite-dp / validate
# ---------------------------------------------------------------------------


def cmd_optimize(args) -> int:
    system, cfg, horizon = _load_system(args)
    _checked(args.lam, "--lambda", True)
    result = optimize_lambda(system, args.lam, horizon, args.seed)
    dump_schedule(result.schedule, args.out)
    meta = _meta(
        args,
        cfg,
        {"lambda": args.lam, "objective": result.objective, "converged": result.converged},
    )
    _write_meta(args.out, meta)
    if args.trace_out:
        header = [
            "iter",
            "objective",
            "stderr",
            "sampling_rate",
            "grad_norm_theta",
            "grad_norm_phi",
        ]
        rows = [
            [
                row.iteration,
                _fmt(row.objective),
                _fmt(row.stderr),
                _fmt(row.sampling_rate),
                _fmt(row.grad_norm_theta),
                _fmt(0.0),  # the conditional-mean follower is an exact best response
            ]
            for row in result.trace
        ]
        _write_csv(args.trace_out, header, rows, meta)
    return 0


def cmd_finite_dp(args) -> int:
    cfg = load_json(args.config)
    model = finite_model_from_config(cfg)
    horizon = _horizon(args, cfg, 2)
    if horizon > 2:
        raise ConfigError(f"finite-dp supports horizons 0 to 2, got {horizon}")
    _checked(args.lam, "--lambda", True)
    result = dp_solve(model, args.lam, horizon)
    header = ["stage", "node", "value", "argmin_policy"]
    rows = []
    for node in result.nodes:
        stage = len(node.history)
        hist = "root" if not node.history else "/".join(node.history)
        policy_txt = ";".join(
            f"a0({x},{','.join(map(str, mem))})={p:.3f}"
            for (x, mem), p in sorted(node.policy.table.items())
        )
        rows.append([stage, hist, _fmt(node.value), policy_txt])
    _write_csv(
        args.out,
        header,
        rows,
        _meta(args, cfg, {"lambda": args.lam, "value": result.value, "refine_drop": result.refine_drop}),
    )
    return 0


def cmd_validate(args) -> int:
    from . import validation

    names = None if args.names is None else args.names.split(",")
    if names is not None and not all(names):
        raise ConfigError(f"empty filter in --names {args.names!r}; every filter must be non-empty")
    checks = [fn.__name__ for fn in validation.ALL_CHECKS]
    unmatched = ", ".join(repr(n) for n in names or () if not any(n in c for c in checks))
    if unmatched:
        raise ConfigError(f"no check matches --names {unmatched}; the checks are {', '.join(checks)}")
    results = validation.run_validation(names=names)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:36s} {r.seconds:6.1f}s  {r.detail}")
    if args.out:
        header = ["name", "passed", "seconds", "detail"]
        rows = [[r.name, int(r.passed), _fmt(r.seconds, 4), r.detail.replace(",", ";")] for r in results]
        _write_csv(args.out, header, rows, {"command": "validate", "version": __version__})
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _horizon(args, cfg: dict, default: int) -> int:
    """--horizon, else the config's K (``default`` without one): an integer >= 0."""
    if args.horizon is not None:
        return checked_count(args.horizon, "--horizon", 0)
    return checked_count(cfg.get("K", default), "config K", 0)


def _load_system(args):
    """(system, config, horizon); the horizon defaults to the config's K."""
    cfg = load_json(args.config)
    horizon = _horizon(args, cfg, 100)
    return system_from_config(cfg), cfg, horizon


def _add_common(p):
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsample",
        description="Privacy-aware stochastic sampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one closed-loop rollout to CSV")
    _add_common(p)
    p.add_argument("--schedule", help="schedule JSON (default: always sample)")
    p.add_argument("--horizon", type=int)
    p.add_argument("--belief-trace", help="optional belief trace CSV path")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep-tradeoff", help="x-error vs y-error trade-off families")
    _add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--rollouts", type=int, default=10_000)
    p.add_argument("--lambdas", default="0.2,0.6,1.5,4.0")
    p.add_argument("--f-grid", default="0.05,0.15,0.5,1.5,4,10,25,60")
    p.add_argument("--noise-grid", default="0.05,0.2,0.5,1.5,4,10,25")
    p.add_argument("--leak-rollouts", type=int, default=200)
    p.set_defaults(fn=cmd_sweep_tradeoff)

    p = sub.add_parser("rate-curve", help="sampling rate vs x-error")
    _add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--rollouts", type=int, default=10_000)
    p.add_argument("--lambdas", default="0.2,0.6,1.5,4.0")
    p.add_argument("--f-grid", default="0.05,0.15,0.5,1.5,4,10,25,60")
    p.set_defaults(fn=cmd_rate_curve)

    p = sub.add_parser("optimize", help="optimize a schedule for one lambda")
    _add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--trace-out", help="convergence trace CSV path")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("finite-dp", help="belief-recursion DP on a finite model")
    _add_common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.set_defaults(fn=cmd_finite_dp)

    p = sub.add_parser("validate", help="run the oracle validation suite")
    p.add_argument("--names", help="comma-separated filters on the check function names")
    p.add_argument("--out", help="optional results CSV")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    _keep_freed_pages()  # before any pool thread starts
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in args:
            checked_count(args.seed, "--seed", 0)
        check_writable(_outputs(args))
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
