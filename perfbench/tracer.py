"""Spans and counters around the calls into each latmult module.

The tracer wraps every public function of each layer module from outside
the package and rebinds the wrapper under every name the package holds the
original by, so `bijections.sequence_type` and `weights.syt_sum_squares`
are traced as admissibility and partitions calls. A few constructors are
wrapped too, because building those objects is where a layer's validation
work happens. Nothing inside the package changes; `uninstall` restores it.

A span records (name, start, end, parent, request). Self time is a span's
duration minus the time its child spans cover, accumulated per layer as
spans close, so totals stay exact even past the cap on stored spans.
"""

import contextlib
import functools
import inspect
import json
import math
import statistics
import time
from pathlib import Path

LAYERS = (
    "cli", "serialize", "verify", "enumeration", "bijections", "admissibility",
    "paths", "tableaux", "partitions", "avoidance", "weights", "guards",
)
# (module, class) whose __post_init__ is traced as a span of that layer
CONSTRUCTORS = (
    ("paths", "PathSequence"),
    ("tableaux", "StandardTableau"),
    ("weights", "AffineCartan"),
)
TIMED_CALLS = ("bijections.tau", "bijections.sigma", "bijections.split", "bijections.join")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.stack: list[list[int]] = []  # [name id, start ns, child ns, span index]
        self.spans: list = []  # (name id, start ns, end ns, parent index, request)
        self.spans_dropped = 0
        self.request = 0
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.outer_ns = {layer: 0 for layer in LAYERS}
        self.depth = {layer: 0 for layer in LAYERS}
        self.durations = {name: [] for name in TIMED_CALLS}
        self.syt_keys: set[tuple[int, int]] = set()
        self.checked: set[tuple[str, ...]] = set()
        self.distinct_checked = 0
        self.passes = 0
        self.active = True
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, lib_modules: dict[str, object]) -> None:
        """Wrap each layer's public functions and rebind them everywhere the
        package refers to them. lib_modules maps 'latmult.x' names to modules."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = lib_modules[f"latmult.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        for mod in lib_modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._rebind(mod, attr, wrapped[id(value)])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(lib_modules[f"latmult.{layer}"], cls_name)
            init = cls.__dict__["__post_init__"]
            self._rebind(cls, "__post_init__", self._wrap(f"{layer}.{cls_name}", layer, init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block go straight to the package, unseen."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls[name] = 0
        self.incl_ns[name] = 0
        observe = _OBSERVERS.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not tracer.stack:  # an outermost call into the package starts a request
                tracer.request += 1
                tracer._flush_checked()
            if observe is not None:
                args, kwargs = observe(tracer, args, kwargs)
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(name, exc)
                raise
            tracer._exit(name, None)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id: int) -> None:
        self.depth[self.layer_of[name_id]] += 1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.spans_dropped += 1
        self.stack.append([name_id, time.perf_counter_ns(), 0, index])

    def _exit(self, name: str, exc) -> None:
        end = time.perf_counter_ns()
        name_id, start, child, index = self.stack.pop()
        duration = end - start
        layer = self.layer_of[name_id]
        self.self_ns[layer] += duration - child
        self.incl_ns[name] += duration
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.outer_ns[layer] += duration
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if index >= 0:
            self.spans[index] = (name_id, start, end, parent, self.request)
        self.calls[name] += 1
        if name in self.durations:
            self.durations[name].append(duration)
        if exc is not None and name == "guards.check_guard":
            self.count("guards.rejections")

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def end_pass(self) -> None:
        self.passes += 1
        self._flush_checked()

    def _flush_checked(self) -> None:
        self.distinct_checked += len(self.checked)
        self.checked.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as {name: (value, unit)}; counts and self times
        are per traced pass, rates and ratios over the whole traced phase."""
        per_pass = 1 / max(self.passes, 1)
        calls, counts = self.calls, self.counts
        out: dict[str, tuple[float, str]] = {}

        def per(name: str, total: float, unit: str = "count") -> None:
            out[name] = (total * per_pass, unit)

        def ratio(name: str, num: float, den: float, unit: str = "ratio") -> None:
            out[name] = (num / den if den else 0.0, unit)

        for layer in LAYERS:
            per(f"{layer}.self_s", self.self_ns[layer] / 1e9, "s")
        visited = counts.get("enumeration.sequences_visited", 0)
        per("enumeration.sequences_visited", visited)
        ratio("enumeration.sequences_per_s", visited, self.outer_ns["enumeration"] / 1e9, "1/s")
        for fn in ("is_admissible", "sequence_type"):
            per(f"admissibility.{fn}.calls", calls[f"admissibility.{fn}"])
        ratio("admissibility.checks_per_sequence",
              calls["admissibility.is_admissible"] + calls["admissibility.sequence_type"],
              self.distinct_checked)
        per("paths.color_counts.calls", calls["paths.color_counts"])
        per("paths.sequences_built", calls["paths.PathSequence"])
        for name in TIMED_CALLS:
            per(f"{name}.calls", calls[name])
            samples = self.durations[name]
            out[f"{name}.p50_us"] = (statistics.median(samples) / 1e3 if samples else 0.0, "us")
        per("partitions.count_syt.calls", calls["partitions.count_syt"])
        per("partitions.partitions_generated", counts.get("partitions.generated", 0))
        ratio("partitions.repeat_key_ratio", counts.get("partitions.syt_sum_repeats", 0),
              counts.get("partitions.syt_sum_calls", 0))
        per("weights.calls", sum(n for name, n in calls.items()
                                 if name.startswith("weights.") and name != "weights.AffineCartan"))
        per("weights.cartan_builds", calls["weights.AffineCartan"])
        per("cli.calls", calls["cli.main"])
        per("cli.parser_build_s", self.incl_ns["cli.build_parser"] / 1e9, "s")
        per("avoidance.words_scanned", counts.get("avoidance.words_scanned", 0))
        per("tableaux.tableaux_enumerated", counts.get("tableaux.enumerated", 0))
        per("verify.checks", counts.get("verify.checks", 0))
        per("guards.rejections", counts.get("guards.rejections", 0))
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the stored spans as JSON lines: a header, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            header = {**meta, "names": self.names, "stored": len(self.spans),
                      "dropped": self.spans_dropped, "fields": ["name", "start_ns", "end_ns",
                                                               "parent", "request"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters taken where the work happens -----------------------------------


def _observe_visit(tracer, args, kwargs):
    """Count every sequence handed to the search's visitor callback."""
    ell, k, visit = args

    def counted(z):
        tracer.count("enumeration.sequences_visited")
        return visit(z)

    return (ell, k, counted), kwargs


def _observe_check(tracer, args, kwargs):
    z = args[0]
    tracer.checked.add(tuple(p.moves for p in z.paths))
    return args, kwargs


def _observe_syt_sum(tracer, args, kwargs):
    key = (args[0], args[1])
    tracer.count("partitions.syt_sum_calls")
    if key in tracer.syt_keys:
        tracer.count("partitions.syt_sum_repeats")
    tracer.syt_keys.add(key)
    return args, kwargs


def _count_avoider_words(tracer, args, kwargs, result) -> None:
    method = args[2] if len(args) > 2 else kwargs.get("method", "formula")
    if method in ("brute", "rsk"):
        tracer.count("avoidance.words_scanned", math.factorial(args[0]))


def _count_one_word(tracer, args, kwargs, result) -> None:
    tracer.count("avoidance.words_scanned")


_OBSERVERS = {
    "enumeration.visit_admissible": _observe_visit,
    "admissibility.is_admissible": _observe_check,
    "admissibility.sequence_type": _observe_check,
    "partitions.syt_sum": _observe_syt_sum,
    "partitions.syt_sum_squares": _observe_syt_sum,
}

# counters taken after a call returns, from its arguments and result
_AFTER = {
    "avoidance.count_avoiders": _count_avoider_words,
    "avoidance.lds_length": _count_one_word,
    "avoidance.rsk": _count_one_word,
    "partitions.partitions_of": lambda t, a, kw, r: t.count("partitions.generated", len(r)),
    "tableaux.enumerate_syt": lambda t, a, kw, r: t.count("tableaux.enumerated", len(r)),
    "verify.run_verification": lambda t, a, kw, r: t.count("verify.checks", len(r)),
}
