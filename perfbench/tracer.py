"""In-memory span tracer that wraps streamnd's public entry points from the
outside, without touching the library's source.

A span is recorded for every call of a traced function while the tracer is
installed: its name, start, end, parent span and operation id.  Self time is
the span's duration minus the time its direct child spans cover.  Spans are
kept in flat typed arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "streamnd"

# "<module>.<function>" or "<module>.<Class>.<method>", relative to PACKAGE
TARGETS = (
    "graph.Graph.subgraph",
    "graph.check_feasible",
    "graph.is_k_connected",
    "streams.BucketScheme.bucket_of",
    "streams.StreamingMst.insert",
    "spanner.FtSpannerState.process_edge",
    "spanner.ft_test_exact",
    "spanner.ft_test_peeling_eft",
    "spanner.HopGraph.within_hops",
    "spanner.HopGraph.short_path",
    "framework.exact_solve",
    "cap1.RootedTree.lca",
    "cap1.Cap1State.from_base",
    "cap1.Cap1State.process_link",
    "cap1.Cap1State.finalize",
    "spqr.build_spqr",
    "cap2.Cap2State.from_base",
    "cap2.Cap2State.process_link",
    "cap2.Cap2State.finalize",
)


class Tracer:
    """Collects spans for TARGETS while installed (see `installed`)."""

    def __init__(self):
        self.names = TARGETS
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # one entry per span, indexed by span id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = 0
        self._stack = []  # [span id, child seconds] of each open span
        self._patches = []  # (namespace, attribute, original value)

    # -- recording

    def _wrap(self, idx, fn):
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return functools.wraps(fn)(traced)

    # -- patching

    def install(self):
        """Replace every binding of each target that a caller can resolve:
        the class attribute for methods, and for functions the defining
        module's name plus every `from .x import f` copy in the package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for idx, target in enumerate(self.names):
            mod_name, *path = target.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(idx, raw.__func__))
                else:
                    new = self._wrap(idx, raw)
                self._patch(owner, attr, raw, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(idx, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, namespace, attr, original, new):
        setattr(namespace, attr, new)
        self._patches.append((namespace, attr, original))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace only inside the `with` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results

    def totals(self):
        """{name: (calls, self seconds)} over every span recorded so far."""
        return {
            name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)
        }

    def write(self, path):
        """Write the spans as JSON lines: one header line naming the columns
        and the span names, then one [name, start, end, parent, op] row per
        span, with times in seconds from the first span's start."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            header = {"columns": ["name", "start_s", "end_s", "parent", "op"], "names": list(self.names)}
            fh.write(json.dumps(header) + "\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    "[%d,%.9f,%.9f,%d,%d]\n"
                    % (
                        self.span_name[sid],
                        self.span_start[sid] - t0,
                        self.span_end[sid] - t0,
                        self.span_parent[sid],
                        self.span_op[sid],
                    )
                )
