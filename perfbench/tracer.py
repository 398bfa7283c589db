"""In-process runs of a workload's commands, untraced and then traced.

Run as a child process:  python3 perfbench/tracer.py SPEC.json RESULT.json

The spec names the commands and two prepared work directories.  The child
imports semind, runs every command through `semind.cli.main` once without
tracing and once with wrappers installed, and writes per-layer metrics and
the output observations of both passes to RESULT.json.  Between commands the
program's lru caches are cleared, so each command starts as cold as it would
in its own process.

Wrappers are installed from outside the program.  A layer is a semind module.
Every module-level function gets a wrapper on each name another semind module
imports it under; calls inside one module stay unwrapped unless a span (a
named inclusive timer) covers the function.  A wrapper charges the time since
the last layer switch to the layer on top of the stack, so the layers' self
times plus the unattributed time (harness work between commands) add up to
the traced wall time exactly.  Methods are not wrapped, with one exception
(HostGraph.__post_init__, counted as graphs.host_builds), so time in another
module's methods counts toward the calling layer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter

from harness import observe
from workloads import Command

LAYERS = ("cli", "graphs", "counting", "search", "profiles", "figures",
          "exactalg", "flags", "certificates")

# span name -> (layer, functions of that layer it covers); each span reports
# <span>_s (inclusive, outermost calls only) and <span>_calls (every call)
SPANS = {
    "graphs.classes": ("graphs", ("_graph_classes",)),
    "graphs.canonical": ("graphs", ("_min_placements",)),
    "graphs.construct": ("graphs", ("make_construction", "construction_parts")),
    "counting.injections": ("counting", ("count_injections",)),
    "counting.fast": ("counting", ("fast_count",)),
    "counting.classify": ("counting", ("classify_pattern",)),
    "counting.blowup": ("counting", ("blowup_injections",)),
    "counting.profile": ("counting", ("induced_profile",)),
    "profiles.eval": ("profiles", ("eval_curve",)),
    "profiles.prog": ("profiles", ("solve_prog_s",)),
    "profiles.crossover": ("profiles", ("find_crossover",)),
    "exactalg.sign": ("exactalg", ("poly_nonpositive_on", "poly_nonnegative_on")),
    "exactalg.roots": ("exactalg", ("count_roots_open",)),
    "exactalg.sturm": ("exactalg", ("sturm_chain",)),
    "flags.product": ("flags", ("flag_product",)),
    "flags.unlabel": ("flags", ("unlabel",)),
    "flags.expand": ("flags", ("expand_pattern",)),
}
COUNTERS = ("graphs.classes_n", "graphs.host_builds", "search.climb_evals")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, besides the import times."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    for span in SPANS:
        names += [f"{span}_s", f"{span}_calls"]
    names += list(COUNTERS)
    names += ["trace.unattributed_s", "trace.wall_s", "trace.untraced_s", "trace.overhead_s"]
    return names


class Tracer:
    def __init__(self):
        self.stack = ["unattributed"]
        self.self_s = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
        self.span_s = dict.fromkeys(SPANS, 0.0)
        self.span_calls = dict.fromkeys(SPANS, 0)
        self.depth = dict.fromkeys(SPANS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.mark = perf_counter()

    def start(self):
        self.mark = perf_counter()

    def stop(self):
        now = perf_counter()
        self.self_s[self.stack[-1]] += now - self.mark
        self.mark = now

    def wrap(self, fn, layer, span=None, counter=None):
        tracer = self
        stack, self_s, counts = self.stack, self.self_s, self.counts
        span_s, span_calls, depth = self.span_s, self.span_calls, self.depth

        def wrapper(*args, **kwargs):
            now = perf_counter()
            self_s[stack[-1]] += now - tracer.mark
            tracer.mark = start = now
            stack.append(layer)
            if counter:
                counts[counter] += 1
            if span:
                span_calls[span] += 1
                depth[span] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer] += now - tracer.mark
                tracer.mark = now
                stack.pop()
                if span:
                    depth[span] -= 1
                    if not depth[span]:
                        span_s[span] += now - start

        wrapper.__wrapped__ = fn
        return wrapper


def _modules() -> dict:
    return {layer: importlib.import_module(f"semind.{layer}") for layer in LAYERS}


def lru_caches(modules: dict) -> list:
    return [
        obj for mod in modules.values() for obj in vars(mod).values()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == mod.__name__
    ]


def install(tracer: Tracer, modules: dict):
    """Wrap the program's functions in place; returns the wrapped cli.main."""
    span_of = {(layer, fn): span for span, (layer, fns) in SPANS.items() for fn in fns}
    wrappers = {}  # id(original) -> wrapper
    home = {}  # id(original) -> layer that defines it
    wrap_at_home = set()  # ids wrapped in their own module too: the spans
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                span = span_of.get((layer, name))
                wrappers[id(obj)] = tracer.wrap(obj, layer, span)
                home[id(obj)] = layer
                if span:
                    wrap_at_home.add(id(obj))

    graphs = modules["graphs"]
    classes = wrappers[id(graphs._graph_classes)]

    def count_classes(k):
        result = classes(k)
        if not tracer.depth["graphs.classes"]:
            tracer.counts["graphs.classes_n"] += len(result)
        return result

    wrappers[id(graphs._graph_classes)] = count_classes

    search = modules["search"]
    make_counter = search._make_counter

    def counted_make_counter(h):
        return tracer.wrap(make_counter(h), "search", counter="search.climb_evals")

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            key = id(obj)
            if key in wrappers and (home[key] != layer or key in wrap_at_home):
                setattr(mod, name, wrappers[key])
    search._make_counter = counted_make_counter
    host = graphs.HostGraph
    host.__post_init__ = tracer.wrap(host.__post_init__, "graphs", counter="graphs.host_builds")
    return tracer.wrap(modules["cli"].main, "cli")


def run_pass(main, caches, commands, cwd: Path):
    """Run the commands in-process in cwd; returns their observations."""
    observations = []
    os.chdir(cwd)
    for cmd in commands:
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(cmd.argv))
            except Exception:
                traceback.print_exc()
                code = 1  # the exit code of a process that dies of this exception
        observations.append(observe(cmd, code, out.getvalue().encode(), cwd))
    return observations


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    commands = [Command(tuple(c["argv"]), writes=tuple(c["writes"])) for c in spec["commands"]]
    modules = _modules()
    caches = lru_caches(modules)

    t0 = perf_counter()
    plain_obs = run_pass(modules["cli"].main, caches, commands, Path(spec["untraced_dir"]))
    untraced = perf_counter() - t0

    tracer = Tracer()
    traced_main = install(tracer, modules)
    tracer.start()
    t0 = tracer.mark
    traced_obs = run_pass(traced_main, caches, commands, Path(spec["traced_dir"]))
    tracer.stop()
    wall = tracer.mark - t0

    metrics = {f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS}
    for span in SPANS:
        metrics[f"{span}_s"] = tracer.span_s[span]
        metrics[f"{span}_calls"] = tracer.span_calls[span]
    metrics.update(tracer.counts)
    metrics["trace.unattributed_s"] = tracer.self_s["unattributed"]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = wall - untraced
    Path(result_path).write_text(json.dumps(
        {"metrics": metrics, "untraced": plain_obs, "traced": traced_obs}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
