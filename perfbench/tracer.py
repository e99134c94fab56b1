"""Outside-in span recorder for the traced benchmark run.

The tracer replaces public functions of the package's modules with thin
wrappers, by setting module attributes from the benchmark's own code.  The
package calls these functions through module attributes
(``momentmatrix.section(...)``, ``numkernel.cholesky(...)``), so the
wrappers see every call, including calls between the package's modules.

Each call records one span: name, layer (the module), start, end and the
index of the enclosing span.  Spans stay in memory, in flat arrays, until
the pass ends.  A span's self time is its duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import math
import os
import time
import weakref
from array import array
from collections import Counter

#: (module, function) pairs whose calls become spans
SPANNED = (
    ("cli", "main"),
    ("cli", "parse_scenario"),
    ("cli", "run"),
    ("cli", "run_builtin"),
    ("measures", "from_json"),
    ("measures", "moment"),
    ("measures", "moment_quadrature"),
    ("momentmatrix", "section"),
    ("numkernel", "cholesky"),
    ("numkernel", "gen_eig_definite"),
    ("numkernel", "herm_eig"),
    ("numkernel", "companion_roots"),
    ("sobolev", "gram_section"),
    ("sobolev", "norm_sequence"),
    ("sobolev", "mult_op_norm"),
    ("sobolev", "orthonormal_polys"),
    ("criteria", "gamma_index"),
    ("criteria", "bpe_decide"),
    ("criteria", "wirtinger_psd_check"),
    ("criteria", "toeplitz_rigidity"),
    ("criteria", "dominance_check"),
    ("criteria", "sobolev_domination_bound"),
    ("criteria", "comparability_bounds"),
    ("criteria", "eigen_limit_report"),
    ("criteria", "bpe_weighted_circles_report"),
    ("reporting", "write_json"),
    ("reporting", "write_csv"),
)


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._largest_section = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, before=None, after=None, failed=None, name_of=None):
        """Wrapper of ``fn`` that records a span per call.

        ``before(args)`` and ``after(args, result)`` run outside the timed
        interval of the span, ``failed(args, exc)`` when ``fn`` raises;
        ``name_of(args)`` gives a per-call span name.
        """
        fixed = self._name(name)
        clock, stack = self.clock, self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(start)
            name_id.append(fixed if name_of is None else self._name(name_of(args)))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                if failed is not None:
                    failed(args, exc)
                raise
            end[sid] = clock()
            start[sid] = t0
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, **hooks) -> None:
        fn = getattr(module, attr, None)
        if fn is None:  # a later version may remove the function
            return
        layer = module.__name__.rsplit(".", 1)[-1]
        setattr(module, attr, self.wrap(fn, f"{layer}.{attr}", **hooks))
        self._patched.append((module, attr, fn))

    def install(self, package) -> None:
        """Wrap every function in SPANNED, with the counting hooks."""
        counts = self.counts
        hooks = {
            ("momentmatrix", "section"): {"before": self._count_nested},
            ("numkernel", "cholesky"): {
                "before": lambda args: counts.update({"numkernel.cholesky.work_n3": len(args[0]) ** 3}),
                "failed": lambda args, exc: counts.update(
                    ["numkernel.cholesky.failed"] if type(exc).__name__ == "NotPositiveDefinite" else []
                ),
            },
            ("sobolev", "norm_sequence"): {"after": self._count_nan},
            ("reporting", "write_json"): {"after": self._count_bytes},
            ("reporting", "write_csv"): {"after": self._count_bytes},
            ("cli", "run_builtin"): {"name_of": lambda args: f"cli.builtin.{args[0]}"},
        }
        for mod_name, attr in SPANNED:
            module = getattr(package, mod_name)
            spec = dict(hooks.get((mod_name, attr), {}))
            if mod_name == "criteria" and attr != "gamma_index":
                spec["after"] = self._count_verdict
            self.patch(module, attr, **spec)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- counting hooks ----------------------------------------------------

    def _count_nested(self, args) -> None:
        m, n = args[0], args[1]
        seen = self._largest_section.get(m, 0)
        if seen >= n:
            self.counts["momentmatrix.section.nested"] += 1
        else:
            self._largest_section[m] = n

    def _count_nan(self, args, seq) -> None:
        self.counts["sobolev.norm_sequence.values"] += len(seq.values)
        self.counts["sobolev.norm_sequence.nan"] += sum(1 for v in seq.values if math.isnan(v))

    def _count_bytes(self, args, result) -> None:
        self.counts["reporting.bytes"] += os.path.getsize(args[0])

    def _count_verdict(self, args, report) -> None:
        self.counts[f"criteria.verdict.{report.verdict}"] += 1

    # -- summary -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total duration, self time) over all spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: (c, d, s) for k, (c, d, s) in out.items()}

    def write_spans(self, path: str) -> None:
        """CSV of every span: name, layer, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,layer,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                name = self.names[self.name_id[i]]
                fh.write(f"{name},{name.split('.', 1)[0]},{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")
