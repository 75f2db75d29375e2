"""Which privsample functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``; metric names are
``<module>.<function>.<stat>`` with stat ``calls``, ``self_s`` or
``total_s``, plus a few ratios computed from spans and counters.
"""
from __future__ import annotations

import importlib
import inspect
import os
import statistics
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

from tracer import Tracer, summarize

PACKAGE = "privsample"

# span name -> (module, function) wrapped in every module that binds it
FUNCTIONS = {
    "optimizer.rollout_gradient_terms": ("optimizer", "_rollout_gradient_terms"),
    "optimizer.fast_gradient_batch": ("optimizer", "_fast_gradient_batch"),
    "optimizer.fast_schedule_batch": ("optimizer", "_fast_schedule_batch"),
    "optimizer.objective_gradient_linear": ("optimizer", "objective_gradient_linear"),
    "optimizer.stackelberg_optimize": ("optimizer", "stackelberg_optimize"),
    "belief.predict": ("belief", "predict"),
    "belief.update_sample": ("belief", "update_sample"),
    "belief.update_no_sample": ("belief", "update_no_sample"),
    "loss.one_step_loss": ("loss", "one_step_loss"),
    "loss.rollout_losses": ("loss", "rollout_losses"),
    "reconstruct.evaluate_schedule": ("reconstruct", "evaluate_schedule"),
    "reconstruct.kalman_additive_baseline": ("reconstruct", "kalman_additive_baseline"),
    "lingauss.simulate_batch": ("lingauss", "simulate_batch"),
    "finite.dp_solve": ("finite", "dp_solve"),
    "finite.belief_step": ("finite", "belief_step"),
    "cli.write_csv": ("cli", "_write_csv"),
    "configio.load_json": ("configio", "load_json"),
    "linalg.inv_or_pinv": ("linalg", "inv_or_pinv"),
}

# span name -> (module, class, method)
METHODS = {
    "finite.solve_node": ("finite", "_ValueRecursion", "solve_node"),
    "finite.value": ("finite", "_ValueRecursion", "value"),
    "finite.losses_batch": ("finite", "_Space", "losses_batch"),
}

SELF_SHARE_MODULES = (
    "optimizer", "belief", "loss", "reconstruct", "lingauss", "finite", "cli", "configio", "linalg",
)

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("optimizer.rollout_gradient_terms.calls", "count"),
    ("optimizer.rollout_gradient_terms.self_s", "s"),
    ("optimizer.fast_gradient_batch.calls", "count"),
    ("optimizer.fast_gradient_batch.self_s", "s"),
    ("optimizer.fast_schedule_batch.calls", "count"),
    ("optimizer.fast_schedule_batch.self_s", "s"),
    ("optimizer.objective_gradient_linear.calls", "count"),
    ("optimizer.stackelberg_optimize.total_s", "s"),
    ("optimizer.iterations", "count"),
    ("optimizer.info_rollouts", "count"),
    ("optimizer.growing_rollout_share", "fraction"),
    ("belief.predict.calls", "count"),
    ("belief.predict.self_s", "s"),
    ("belief.update_sample.calls", "count"),
    ("belief.update_sample.self_s", "s"),
    ("belief.update_no_sample.calls", "count"),
    ("belief.update_no_sample.self_s", "s"),
    ("belief.max_dim", "count"),
    ("loss.one_step_loss.calls", "count"),
    ("loss.one_step_loss.self_s", "s"),
    ("loss.rollout_losses.calls", "count"),
    ("loss.rollout_losses.self_s", "s"),
    ("reconstruct.evaluate_schedule.calls", "count"),
    ("reconstruct.evaluate_schedule.self_s", "s"),
    ("reconstruct.kalman_additive_baseline.calls", "count"),
    ("reconstruct.kalman_additive_baseline.self_s", "s"),
    ("lingauss.simulate_batch.calls", "count"),
    ("lingauss.simulate_batch.self_s", "s"),
    ("reconstruct.rollout_steps_per_s", "1/s"),
    ("finite.dp_solve.total_s", "s"),
    ("finite.belief_step.calls", "count"),
    ("finite.belief_step.self_s", "s"),
    ("finite.solve_node.calls", "count"),
    ("finite.solve_node.self_s", "s"),
    ("finite.losses_batch.calls", "count"),
    ("finite.losses_batch.self_s", "s"),
    ("finite.value.calls", "count"),
    ("finite.memo_hit_ratio", "fraction"),
    ("cli.sweep_task.count", "count"),
    ("cli.sweep_task.p50_s", "s"),
    ("cli.sweep_task.max_s", "s"),
    ("cli.pool_busy_frac", "fraction"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "B"),
    ("configio.load_json.self_s", "s"),
    ("linalg.inv_or_pinv.calls", "count"),
    ("linalg.fallback_warnings", "count"),
] + [(f"{m}.self_share", "fraction") for m in SELF_SHARE_MODULES] + [
    ("trace_overhead_frac", "fraction"),
]


def _arg_getter(fn, name):
    """Reads argument ``name`` of a call to ``fn`` from (args, kwargs)."""
    sig = inspect.signature(fn)
    index = list(sig.parameters).index(name)

    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]

    return get


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported privsample modules."""
    def module(name):
        return importlib.import_module(f"{PACKAGE}.{name}")

    optimizer, reconstruct, cli = module("optimizer"), module("reconstruct"), module("cli")

    def rollouts_of(fn):
        get = _arg_getter(fn, "rollouts")
        return lambda a, k, r: tracer.add("batched_rollouts", get(a, k))

    def steps_of(fn):
        get_h, get_r = _arg_getter(fn, "horizon"), _arg_getter(fn, "rollouts")
        return lambda a, k, r: tracer.add("reconstruct_steps", get_r(a, k) * (get_h(a, k) + 1))

    def csv_bytes(a, k, r):
        path = _arg_getter(cli._write_csv, "path")(a, k)
        for p in (str(path), str(path) + ".meta.json"):
            tracer.add("csv_bytes", os.path.getsize(p))

    observers = {
        "optimizer.fast_gradient_batch": rollouts_of(optimizer._fast_gradient_batch),
        "optimizer.fast_schedule_batch": rollouts_of(optimizer._fast_schedule_batch),
        "optimizer.stackelberg_optimize": lambda a, k, r: tracer.add("iterations", len(r.trace)),
        "belief.predict": lambda a, k, r: tracer.maximum("belief_max_dim", r.dim),
        "reconstruct.evaluate_schedule": steps_of(reconstruct.evaluate_schedule),
        "reconstruct.kalman_additive_baseline": steps_of(reconstruct.kalman_additive_baseline),
        "cli.write_csv": csv_bytes,
    }
    for name, (mod_name, attr) in FUNCTIONS.items():
        tracer.patch_function(PACKAGE, mod_name, attr, name, observers.get(name))
    for name, (mod_name, cls, attr) in METHODS.items():
        tracer.patch_method(getattr(module(mod_name), cls), attr, name)

    class TracedPool(ThreadPoolExecutor):
        """Sweep pool whose tasks are spans nested under one ``cli.sweep_pool`` span."""

        def map(self, fn, *iterables, **kwargs):
            tracer.maximum("pool_workers", self._max_workers)

            def run_all():
                parent = tracer.current()

                def task(*args):
                    return tracer.call("cli.sweep_task", fn, args, parent=parent)

                return list(ThreadPoolExecutor.map(self, task, *iterables, **kwargs))

            return iter(tracer.call("cli.sweep_pool", run_all))

    tracer.patch(cli, "ThreadPoolExecutor", TracedPool)


def metrics(spans, counters: dict, caught_warnings, untraced_wall: float) -> dict:
    """Every metric in METRICS from one traced ``cli.main`` run.

    ``caught_warnings`` are all warnings recorded during the run; only
    those raised in ``linalg`` count as fallback warnings.
    """
    stats = summarize(spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0.0)

    wall = stat("cli.main", "total_s")
    out = {}
    for name, _ in METRICS:
        head, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "total_s"):
            out[name] = stat(head, key)
    growing = stat("optimizer.rollout_gradient_terms", "calls") + stat("loss.rollout_losses", "calls")
    info_rollouts = growing + counters.get("batched_rollouts", 0.0)
    tasks = [s.end - s.start for s in spans if s.name == "cli.sweep_task"]
    pool_wall = stat("cli.sweep_pool", "total_s")
    recon_s = stat("reconstruct.evaluate_schedule", "total_s") + stat(
        "reconstruct.kalman_additive_baseline", "total_s"
    )
    out.update(
        {
            "optimizer.iterations": counters.get("iterations", 0.0),
            "optimizer.info_rollouts": info_rollouts,
            "optimizer.growing_rollout_share": growing / info_rollouts if info_rollouts else 0.0,
            "belief.max_dim": counters.get("belief_max_dim", 0.0),
            "reconstruct.rollout_steps_per_s": (
                counters.get("reconstruct_steps", 0.0) / recon_s if recon_s else 0.0
            ),
            "finite.memo_hit_ratio": _memo_hit_ratio(spans),
            "cli.sweep_task.count": len(tasks),
            "cli.sweep_task.p50_s": statistics.median(tasks) if tasks else 0.0,
            "cli.sweep_task.max_s": max(tasks, default=0.0),
            "cli.pool_busy_frac": (
                sum(tasks) / (counters["pool_workers"] * pool_wall) if pool_wall else 0.0
            ),
            "cli.write_csv.bytes": counters.get("csv_bytes", 0.0),
            "linalg.fallback_warnings": sum(
                1 for w in caught_warnings if Path(w.filename).parts[-2:] == (PACKAGE, "linalg.py")
            ),
            "trace_overhead_frac": wall / untraced_wall - 1.0,
        }
    )
    # share of all traced thread time, which exceeds wall time while the pool runs
    busy = sum(row["self_s"] for row in stats.values())
    for module in SELF_SHARE_MODULES:
        own = sum(row["self_s"] for n, row in stats.items() if n.startswith(module + "."))
        out[f"{module}.self_share"] = own / busy
    return {name: out[name] for name, _ in METRICS}


def _memo_hit_ratio(spans) -> float:
    """Share of ``finite.value`` calls answered from the memo.

    A call that misses solves its node, so it has a ``finite.solve_node``
    child; a hit has none.
    """
    values = {s.id for s in spans if s.name == "finite.value"}
    if not values:
        return 0.0
    misses = {s.parent for s in spans if s.name == "finite.solve_node" and s.parent in values}
    return 1.0 - len(misses) / len(values)
