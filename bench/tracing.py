"""Per-layer tracing from outside the program.

A ``Tracer`` replaces each public function listed in ``LAYERS`` by a timing
wrapper, in every ``esnlab`` module namespace that binds it (``classify_double``
is bound in both ``double`` and ``presheaf``, for instance), and puts the
original objects back on ``uninstall``. Private helpers such as ``_assoc_ok``
stay unwrapped, so their cost shows as the self time of the public function
that calls them.

Spans are kept in memory. Search pool workers record their own spans and write
them to a directory when they exit; ``collect`` merges those files.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

LAYERS = {
    "cli": ("main",),
    "tables": ("parse_table", "parse_double", "format_table", "format_double",
               "is_associative", "is_commutative", "is_canonical", "canonical_form"),
    "search": ("enumerate_semigroups", "search_double", "tables_matching",
               "second_table_search", "canonical_pair"),
    "inverse": ("analyze_inverse", "is_clifford", "characterize_inverse"),
    "esn": ("ig_from_is", "is_from_ig", "validate_ig", "semigroup_roundtrip"),
    "double": ("classify_double", "dig_from_dis", "dis_from_dig", "validate_dig",
               "verify_interchange_identities", "roundtrip_double", "roundtrip_dig",
               "dig_from_json", "dig_to_json"),
    "presheaf": ("decompose", "compose", "main_theorem_report", "validate_presheaf",
                 "component_groups", "presheaf_from_dig", "dig_from_presheaf",
                 "presheaf_from_json", "presheaf_to_json"),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# The tracer whose wrappers are installed in this process; pool workers reach
# it through ``_worker_start``, which runs before any task.
_active = None


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool  # where pool workers write their spans
        self.spans = []  # [request, span id, parent id, name, start, end, pid]
        self.request = 0
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def install(self):
        global _active
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "esnlab" or name.startswith("esnlab."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"esnlab.{layer}"]
            for name in names:
                original = getattr(home, name)
                timed = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, timed)
        search = sys.modules["esnlab.search"]
        self._patched.append((search, "ProcessPoolExecutor", search.ProcessPoolExecutor))
        search.ProcessPoolExecutor = functools.partial(
            ProcessPoolExecutor, initializer=_worker_start, initargs=(str(self.spool),))
        _active = self

    def uninstall(self):
        global _active
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        _active = None

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [self.request, len(spans), stack[-1] if stack else None, name,
                    clock(), None, os.getpid()]
            spans.append(span)
            stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = clock()

        return timed

    def collect(self):
        """Merge and remove the span files that pool workers wrote."""
        for path in sorted(self.spool.glob("worker-*.json")):
            self.spans.extend(json.loads(path.read_text()))
            path.unlink()

    def totals(self):
        """{function: (calls, self seconds)} over every process, each listed
        function present. Self time is a span's duration minus its children's."""
        child = {}
        for request, sid, parent, name, start, end, pid in self.spans:
            if parent is not None:
                key = (pid, parent)
                child[key] = child.get(key, 0.0) + (end - start)
        out = {name: [0, 0.0] for name in FUNCTIONS}
        for request, sid, parent, name, start, end, pid in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child.get((pid, sid), 0.0)
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path):
        path.write_text(json.dumps(
            {"fields": ["request", "span", "parent", "name", "start", "end", "pid"],
             "spans": self.spans}))


def _worker_start(spool):
    """Pool initializer: record only this worker's spans and write them out
    when the worker exits. Under a start method other than fork the worker
    imported a fresh ``esnlab``, so it installs its own wrappers."""
    global _active
    if _active is None:
        import esnlab.cli  # noqa: F401  (loads every traced module)
        Tracer(Path(spool)).install()
    tracer = _active
    tracer.spans.clear()
    tracer._stack.clear()
    path = Path(spool) / f"worker-{os.getpid()}.json"
    multiprocessing.util.Finalize(
        None, lambda: path.write_text(json.dumps(tracer.spans)), exitpriority=0)
