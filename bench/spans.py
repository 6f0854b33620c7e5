"""Spans at the boundaries between ulln modules, and the per-layer
metrics derived from them.

`Tracer.install` replaces, in each ulln module, every function that the
module imported from another ulln module with a wrapper that records a
span, plus the few entry points listed in `EXTRA_WRAPS`.  A span is
`[name, site, parent, start, end, elements, extra]`: `name` is
`<callee layer>.<function>`, `site` the layer whose code made the call,
`parent` the index of the enclosing span (-1 at the root), and
`elements` the size of the largest array argument (a `Dataset` counts
its rows), computed from array sizes.  Spans stay in memory until
`write`.  The program itself is not changed: `restore` puts every
original back.
"""
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("cli", "experiments", "datagen", "solver", "model", "deviation", "bounds", "quadrature", "theory_checks")
SUITES = ("hermite", "smoothing", "ito", "moments", "g")

# Calls that do not cross a module boundary by an imported name, but whose
# spans the per-layer metrics need: the workload entry call, one
# replication, the theta* draw that `experiments` imports inside a
# function, and the identity suites that `cli` reaches through
# `theory_checks.run_suite`.
EXTRA_WRAPS = (
    ("ulln.cli", "main"),
    ("ulln.experiments", "run_replication"),
    ("ulln.datagen", "sample_theta_star"),
    ("ulln.theory_checks", "run_suite"),
) + tuple(("ulln.theory_checks", f"_{suite}_suite") for suite in SUITES)

# Figures read from a call's arguments and result, computed from array sizes.
RESULT_HOOKS = {
    # two passes over the n x p design per accepted iteration (score and gradient matvecs)
    "solver.fit_constrained": lambda args, fit: {
        "iterations": fit.iterations, "matvec_bytes": 2 * args[0].n * args[0].p * 8 * fit.iterations},
    "datagen.generate_dataset": lambda args, _: {"normals": args[0].n * args[0].p},
}


def _elements(args) -> int:
    count = 0
    for arg in args:
        inputs = getattr(arg, "inputs", None)
        if inputs is not None:
            count = max(count, inputs.shape[0])
        elif isinstance(arg, float) or hasattr(arg, "size"):
            count = max(count, int(getattr(arg, "size", 1)))
    return count


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, hook = self.spans, self._stack, RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            record = [name, site, stack[-1] if stack else -1, 0.0, 0.0, _elements(args), None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if hook is not None:
                record[6] = hook(args, result)
            return result

        return traced

    def install(self) -> None:
        targets = []
        for modname in sorted(m for m in sys.modules if m.startswith("ulln.")):
            module = sys.modules[modname]
            for attr, value in vars(module).items():
                owner = getattr(value, "__module__", None) or ""
                if (callable(value) and not isinstance(value, type)
                        and owner.startswith("ulln.") and owner != modname):
                    targets.append((module, attr, owner))
        for modname, attr in EXTRA_WRAPS:
            targets.append((sys.modules[modname], attr, modname))
        for module, attr, owner in targets:
            original = getattr(module, attr)
            name = f"{owner.split('.')[1]}.{original.__name__}"
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module.__name__.split(".")[1]))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    @staticmethod
    def quadrature_cache_misses() -> int:
        """Misses of the public `lru_cache` rules in `ulln.quadrature`."""
        module = sys.modules["ulln.quadrature"]
        return sum(fn.cache_info().misses for fn in vars(module).values() if hasattr(fn, "cache_info"))

    def write(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, _, start, end, _, _ in spans]
    for _, _, parent, start, end, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][2]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][2]
    return False


def layer_metrics(spans, cache_misses: int) -> dict[str, float]:
    """Per-layer metrics of one traced call; a layer the call never enters reads 0."""
    own = self_times(spans)
    layer_of = [s[0].split(".", 1)[0] for s in spans]

    def durations(name):
        return [s[4] - s[3] for s in spans if s[0] == name]

    def self_sum(pred):
        return sum(t for t, s, layer in zip(own, spans, layer_of) if pred(s, layer))

    def extra_sum(name, key):
        return sum(s[6][key] for s in spans if s[0] == name)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    m = {}
    m["experiments.replication_s"] = median(durations("experiments.run_replication"))

    m["datagen.generate_s"] = sum(durations("datagen.generate_dataset"))
    m["datagen.normals_per_s"] = ratio(extra_sum("datagen.generate_dataset", "normals"), m["datagen.generate_s"])

    m["solver.fit_s"] = sum(durations("solver.fit_constrained"))
    m["solver.iterations"] = extra_sum("solver.fit_constrained", "iterations")
    m["solver.s_per_iteration"] = ratio(m["solver.fit_s"], m["solver.iterations"])
    m["solver.matvec_gb_computed"] = extra_sum("solver.fit_constrained", "matvec_bytes") / 1e9

    model = [i for i, layer in enumerate(layer_of) if layer == "model"]
    m["model.calls"] = len(model)
    m["model.elements"] = sum(spans[i][5] for i in model)
    m["model.self_s"] = sum(own[i] for i in model)
    m["model.ns_per_element"] = ratio(m["model.self_s"], m["model.elements"], 1e9)
    for fn in ("sigmoid", "sigmoid_derivative", "_mixture_loss", "empirical_risk", "risk_gradient",
               "per_example_loss"):
        m[f"model.{fn.lstrip('_')}_s"] = self_sum(lambda s, _, fn=fn: s[0] == f"model.{fn}")

    searches = durations("deviation.sup_deviation_search")
    m["deviation.search_s"] = self_sum(lambda _, layer: layer == "deviation")
    under_search = sum(1 for i in model if _has_ancestor(spans, i, "deviation.sup_deviation_search"))
    m["deviation.model_calls_per_replicate"] = ratio(under_search, len(searches))
    m["deviation.replicate_p50_s"] = median(searches)

    for suite in SUITES:
        m[f"theory_checks.suite_s.{suite}"] = sum(durations(f"theory_checks._{suite}_suite"))
    m["theory_checks.self_s"] = self_sum(lambda _, layer: layer == "theory_checks")
    m["theory_checks.kernel_elements"] = sum(
        s[5] for s in spans if s[1] == "theory_checks" and s[0] in ("model.sigmoid", "model.sigmoid_derivative"))

    m["quadrature.build_s"] = self_sum(lambda _, layer: layer == "quadrature")
    m["quadrature.cache_misses"] = cache_misses
    m["bounds.eval_s"] = self_sum(lambda _, layer: layer == "bounds")
    m["cli.self_s"] = self_sum(lambda _, layer: layer == "cli")
    return m
