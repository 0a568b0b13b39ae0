"""Run one `perigon` command with the calls into each layer timed.

The timing is done from outside the program: after importing `perigon.cli`
this script replaces each function named in layers.py, under every name a
`perigon` module looks it up by, with a wrapper that records a span.  Spans
nest, and a layer's self time is its spans' time minus their child spans'.
Calls and self times are summed as calls return; the spans themselves are
kept only when PERFBENCH_SPANS names a file, and are appended to it at the
end.

Started by run.py as
    python3 perfbench/traced_cli.py KEY PERIGON-ARGS...
with PYTHONPATH naming the checkout's src/, PERFBENCH_SPAWN the parent's
clock reading when it started this process, and PERFBENCH_SUMMARY the file
to write the per-layer totals to.  Standard output and the exit status are
the command's own.
"""

import sys
import time

import perigon.cli

IMPORTED = time.perf_counter()

import inspect  # noqa: E402  (imported after the timed import on purpose)
import json  # noqa: E402
import os  # noqa: E402

from layers import FUNCTIONS, LAYERS, RESULT_BITS  # noqa: E402

# spans shorter than this are left out of the span file (not out of the totals);
# a span is never longer than its parent, so no kept span loses its parent
SPAN_MIN_S = 100e-6


class Tracer:
    def __init__(self, record: bool):
        # per layer: [calls, self time, result bits]
        self.totals = {name: [0, 0.0, 0] for name in LAYERS}
        # time covered by child spans, one entry per open span; [0] is the command
        self.child = [0.0]
        # spans kept for the span file: (id, parent id, layer, start, end);
        # ids 0 and 1 are start-up and the command
        self.spans = [] if record else None
        self.ids = [1]
        self.next_id = 2

    def wrap(self, fn, layer):
        clock, child, acc = time.perf_counter, self.child, self.totals[layer]
        bits = layer in RESULT_BITS
        spans, ids = self.spans, self.ids

        def timer(call):
            def timed(*args, **kwargs):
                child.append(0.0)
                if spans is not None:
                    ids.append(self.next_id)
                    self.next_id += 1
                start = clock()
                try:
                    result = call(*args, **kwargs)
                finally:
                    took = clock() - start
                    acc[0] += 1
                    acc[1] += took - child.pop()
                    child[-1] += took
                    if spans is not None:
                        span = ids.pop()
                        if took >= SPAN_MIN_S:
                            spans.append((span, ids[-1], layer, start, start + took))
                if bits:
                    acc[2] += result.bit_length()
                return result
            return timed

        if not inspect.isgeneratorfunction(fn):
            return timer(fn)
        step = timer(next)

        def timed_steps(*args, **kwargs):
            # a generator works at each step, so each step is a span
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return timed_steps

    def install(self) -> None:
        targets = {}
        for (module, name), layer in FUNCTIONS.items():
            fn = getattr(sys.modules.get(module), name, None)
            if callable(fn):
                targets[id(fn)] = (fn, layer)
        model = sys.modules["perigon.model"]
        for name in getattr(model, "__all__", ()):
            fn = getattr(model, name)
            if inspect.isfunction(fn):
                targets[id(fn)] = (fn, "model")
        wrappers = {key: (fn, self.wrap(fn, layer)) for key, (fn, layer) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "perigon" and not module_name.startswith("perigon."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def main() -> int:
    key, argv = sys.argv[1], sys.argv[2:]
    spans_path = os.environ.get("PERFBENCH_SPANS")
    tracer = Tracer(record=bool(spans_path))
    tracer.install()
    started = time.perf_counter()
    try:
        code = perigon.cli.main(argv)
        sys.stdout.flush()
    finally:
        ended = time.perf_counter()
        cli = tracer.totals["cli"]
        cli[0] += 1
        cli[1] += ended - started - tracer.child[0]
    with open(os.environ["PERFBENCH_SUMMARY"], "w") as f:
        json.dump({"imported": IMPORTED, "layers": tracer.totals}, f)
    if spans_path:
        t0 = float(os.environ["PERFBENCH_T0"])
        spans = [(0, -1, "startup", float(os.environ["PERFBENCH_SPAWN"]), IMPORTED),
                 (1, -1, "cli", started, ended), *tracer.spans]
        with open(spans_path, "a") as f:
            for span, parent, layer, start, end in spans:
                f.write(f"{key},{span},{parent},{layer},{start - t0:.9f},{end - t0:.9f}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
