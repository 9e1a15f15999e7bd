"""Layer tracing for the benchmark's traced run.

`Tracer.install()` wraps every public function of the five layer modules
(`cli`, `words`, `constructions`, `admissibility`, `oracle`) in the module's
own namespace, wherever another module bound it with `from .x import y`, and
in module-level tables that hold it (the CLI's handler table). Each call then
becomes a span: name, start, end, parent span and request. `uninstall()`
restores the original functions, so the untraced runs see none of this.

Per layer the tracer keeps, in place: calls, self time (a span's duration
minus the time its child spans cover) and calls that raised. Kernel meters
count the work of the outermost call of a kernel (letters built, windows
scanned, oracle instances) together with that call's duration.

Hot inner boundaries are aggregated instead of kept as one span per call:
once a span has FANOUT children of one name, later calls of that name under
it, and everything they call, are folded into per-path counters (calls,
total time, errors). `oracle -> is_admissible`, about 157k calls per `verify`
request, becomes one record. Spans and aggregates stay in memory until
`write()` at the end of the run.
"""

import functools
import importlib
import inspect
import json
from time import perf_counter_ns

PACKAGE = "mechwords"
LAYERS = ("cli", "words", "constructions", "admissibility", "oracle")
FANOUT = 16


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# function -> (kernel, work done by one outermost call)
METERS = {
    "words.mechanical_word": ("words.letters", lambda a, kw, r: len(r)),
    "words.check_balance": (
        "words.balance",
        lambda a, kw, r: len(_first(a, kw, "period")) if r.ok else r.start + 1),
    "constructions.arrange": ("constructions.letters", lambda a, kw, r: len(r)),
    "constructions.smith_ladder": ("constructions.letters", lambda a, kw, r: len(r[-1])),
    "constructions.smith_word": ("constructions.letters", lambda a, kw, r: len(r)),
    "constructions.smith_to_mechanical": ("constructions.letters", lambda a, kw, r: len(r)),
    "constructions.canonical_rotation": ("constructions.rotation", lambda a, kw, r: len(r[0])),
    "constructions.rotation_equivalent": (
        "constructions.rotation", lambda a, kw, r: len(_first(a, kw, "w1"))),
    "admissibility.window_weight_profile": ("admissibility.windows", lambda a, kw, r: len(r)),
    "oracle.brute_force_exists": ("oracle.instances", lambda a, kw, r: r.instances_checked),
}
KERNELS = sorted({kernel for kernel, _ in METERS.values()})


class _Frame:
    __slots__ = ("span", "key", "child_ns", "fanout")

    def __init__(self, span, key):
        self.span = span      # span id, or None when aggregated
        self.key = key        # (span id, name, ...) path of an aggregated call
        self.child_ns = 0
        self.fanout = {}


class Tracer:
    def __init__(self):
        self.request = None
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.kernel_work = dict.fromkeys(KERNELS, 0)
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.kernel_ns = dict.fromkeys(KERNELS, 0)
        self.spans = []        # (id, parent, request, name, start_ns, end_ns, raised)
        self.aggregates = {}   # key -> [calls, total_ns, raised]
        self._stack = []
        self._active = dict.fromkeys(KERNELS, 0)
        self._patches = []
        self._last_span = 0

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
        for module in (package, *modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module.__dict__, name, wrappers[obj])
                elif type(obj) is dict:
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])

    def _patch(self, table: dict, key, wrapper) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            table, key, original = self._patches.pop()
            table[key] = original

    def _wrap(self, fn, layer: str, name: str):
        meter = METERS.get(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(fn, layer, name, meter, args, kwargs)
        return traced

    # --- recording --------------------------------------------------------

    def _call(self, fn, layer, name, meter, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is None:
            frame = _Frame(self._new_span_id(), None)
        elif parent.key is not None:
            frame = _Frame(None, parent.key + (name,))
        else:
            seen = parent.fanout.get(name, 0)
            parent.fanout[name] = seen + 1
            if seen < FANOUT:
                frame = _Frame(self._new_span_id(), None)
            else:
                frame = _Frame(None, (parent.span, name))
        kernel = outermost = None
        if meter is not None:
            kernel = meter[0]
            outermost = self._active[kernel] == 0
            self._active[kernel] += 1
        stack.append(frame)
        raised = False
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.calls[layer] += 1
            self.self_ns[layer] += duration - frame.child_ns
            self.errors[layer] += raised
            if kernel is not None:
                self._active[kernel] -= 1
            if parent is not None:
                parent.child_ns += duration
            if frame.span is not None:
                self.spans.append((frame.span, parent and parent.span, self.request,
                                   name, start, end, raised))
            else:
                record = self.aggregates.setdefault(frame.key, [0, 0, 0])
                record[0] += 1
                record[1] += duration
                record[2] += raised
        if outermost:
            self.kernel_work[kernel] += meter[1](args, kwargs, result)
            self.kernel_calls[kernel] += 1
            self.kernel_ns[kernel] += duration
        return result

    def _new_span_id(self) -> int:
        self._last_span += 1
        return self._last_span

    # --- reading ----------------------------------------------------------

    def counts(self) -> tuple:
        """Every count the tracer keeps, to compare passes over the same requests."""
        return (tuple(self.calls.values()), tuple(self.errors.values()),
                tuple(self.kernel_work.values()), tuple(self.kernel_calls.values()))

    def write(self, path) -> None:
        """Spans and aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span, parent, request, name, start, end, raised in self.spans:
                out.write(json.dumps({"span": span, "parent": parent, "request": request,
                                      "name": name, "start_ns": start, "end_ns": end,
                                      "raised": bool(raised)}) + "\n")
            for key, (calls, total, raised) in self.aggregates.items():
                out.write(json.dumps({"parent": key[0], "path": list(key[1:]),
                                      "calls": calls, "total_ns": total,
                                      "raised": raised}) + "\n")
