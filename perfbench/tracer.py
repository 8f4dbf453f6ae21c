"""Span tracing of osseg functions, installed from outside the package.

`patched(tracer, functions)` replaces each named function with a wrapper
that records one span per call: name, start, end, parent span and root
span (the root identifies the request a span belongs to). A plain function
is replaced under every name an osseg module binds it to, so a call through
a name imported with `from .segmodel import forward` is counted as well. On
exit every original object is put back.

Spans stay in memory until the caller writes them out. A span's self time
is its duration minus the durations of its direct children; the program
runs on one thread, so children never overlap each other.
"""

import contextlib
import functools
import sys
import time

NO_PARENT = -1


class Tracer:
    """In-memory span recorder; spans[i] is (name, start_ns, end_ns, parent, root)."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else NO_PARENT
            root = stack[0] if stack else span_id
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, root)

        return traced

    def add_count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def durations_ms(self, name, first=0):
        """Durations of the spans called `name`, from span index `first` on."""
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans[first:] if n == name]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,root,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, root) in enumerate(self.spans):
                f.write(f"{i},{root},{parent},{name},{start},{end}\n")


def self_times_ns(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            own[parent] -= end - start
    return own


def summarize(spans):
    """{name: (calls, self_ns)} over all spans."""
    out = {}
    for (name, _, _, _, _), own in zip(spans, self_times_ns(spans)):
        calls, total = out.get(name, (0, 0))
        out[name] = (calls + 1, total + own)
    return out


def count_graph_nodes(loss):
    """Nodes `osseg.autograd.backward(loss)` will visit, by the same walk."""
    seen = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._backward_fn is None:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


def _resolve(function):
    """'trainer.AdamW.step' -> (osseg.trainer.AdamW, 'step')."""
    module, _, path = function.partition(".")
    owner = sys.modules["osseg." + module]
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owner, attr, original):
    """Every (object, name) through which osseg code reaches `original`."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if name == "osseg" or name.startswith("osseg."):
            for key, value in vars(module).items():
                if value is original:
                    found.append((module, key))
    return found


@contextlib.contextmanager
def patched(tracer, functions):
    """Trace each osseg function ('module.name', e.g. 'trainer.AdamW.step',
    which is also its span name) for the duration of the block."""
    saved = []
    try:
        for function in functions:
            owner, attr = _resolve(function)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(function, original)
            if function == "autograd.backward":
                wrapper = _counting_backward(tracer, wrapper)
            for obj, key in _bindings(owner, attr, original):
                saved.append((obj, key, original))
                setattr(obj, key, wrapper)
        yield
    finally:
        for obj, key, original in reversed(saved):
            setattr(obj, key, original)


def _counting_backward(tracer, traced_backward):
    # The walk gets a span of its own so that its cost is charged to the
    # tracer, not to the caller's self time.
    count = tracer.wrap("perfbench.count_graph_nodes", count_graph_nodes)

    @functools.wraps(traced_backward)
    def backward(loss, *args, **kwargs):
        tracer.add_count("autograd.backward.nodes", count(loss))
        return traced_backward(loss, *args, **kwargs)

    return backward
