"""Outside-in span tracer for the boltvision layers.

Installing a Tracer replaces every public function of the imagecore,
geometry, pipeline and identify modules, and ``cli.main``, with a
wrapper that records a span, wherever any ``boltvision`` module binds
that function.  Nothing under ``src/`` knows about it.  Leaving the
``with`` block puts every original binding back.

Spans stay in memory as ``[parent, name, start_ns, end_ns]`` and are
aggregated or written out once the run ends.  A span's self time is its
duration minus the durations of its direct children; calls within one
thread never overlap, so the self times of one op add up to the op.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

LAYERS = ("imagecore", "geometry", "pipeline", "identify")

# harness work done inside an op (the kept-component count) is recorded
# under this span so it is charged to no layer
OWN_SPAN = "trace.count"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts = {"components": 0, "kept": 0, "hull_points": 0}
        self._stack = [-1]
        self._replaced: list[tuple[object, str, object]] = []
        self._count_kept = self._wrap(OWN_SPAN, self._count_kept)
        self._hooks = {
            "imagecore.connected_components": self._after_labelling,
            "geometry.convex_hull": self._after_hull,
        }

    def __enter__(self) -> "Tracer":
        from boltvision import cli
        from boltvision.pipeline import PipelineConfig

        # components this large survive the CLI's speck filter
        self._speck_floor = PipelineConfig().min_component_area

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"boltvision.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    name = f"{layer}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, self._hooks.get(name)))
        wrappers[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))

        for modname, mod in list(sys.modules.items()):
            if modname != "boltvision" and not modname.startswith("boltvision."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replaced.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._replaced):
            setattr(mod, attr, value)
        self._replaced.clear()

    def _wrap(self, name: str, fn, after=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [stack[-1], idx, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_labelling(self, args, comps) -> None:
        self.counts["components"] += len(comps)
        self._count_kept(comps)

    def _after_hull(self, args, hull) -> None:
        self.counts["hull_points"] += len(args[0])

    def _count_kept(self, comps) -> None:
        self.counts["kept"] += sum(
            1 for c in comps if np.count_nonzero(c.mask.px) >= self._speck_floor
        )

    def reset(self) -> None:
        """Drop every span and count so far; call between ops."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    def totals(self) -> dict[str, tuple[float, int]]:
        """name -> (self time in ms, calls) over the recorded spans."""
        child_ns = [0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for i, (_, idx, t0, t1) in enumerate(self.spans):
            self_ns[idx] += t1 - t0 - child_ns[i]
            calls[idx] += 1
        return {
            name: (self_ns[i] / 1e6, calls[i])
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (parent, idx, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[idx]},{t0},{t1}\n")
