"""In-memory spans around calls into the public functions of the library.

A traced pass replaces every public function of the instrumented modules, in
every ``bergman`` module that refers to it, with a wrapper that records one
span per call: name, start, end, parent span, request id, a domain or p tag
and two computed counts (work items and bytes).  Spans stay in memory and are
written out once, when the pass ends.  The untraced passes use ``NullTracer``,
which costs one no-op context manager per request.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

LAYERS = ("domains", "quadrature", "transforms", "opnorm", "hartogs", "reproduce")


def domain_name(domain) -> str:
    """CLI-style name of a DomainSpec: disc, ball2, bidisc, hartogs, ..."""
    kind, dim = domain.kind, domain.dim
    if kind == "ball":
        return f"ball{dim}"
    if kind == "polydisc":
        return "bidisc" if dim == 2 else f"polydisc{dim}"
    if kind == "half-plane":
        return "halfplane"
    return kind


def p_name(p) -> str:
    p = float(p)
    return "pinf" if p == float("inf") else f"p{p:g}"


def _rule_tag(args, kwargs):
    return domain_name(args[0]), 0, 0


def _op_tag(args, kwargs):
    # berezin(domain, phi, z, rule), ... : the work is one pass over the rule
    rule = args[3] if len(args) > 3 else kwargs["rule"]
    return domain_name(args[0]), len(rule), 0


def _nodes_tag(args, kwargs):
    nodes = args[2] if len(args) > 2 else kwargs["nodes"]
    return domain_name(args[0]), len(nodes), 0


# Tags and counts taken from the arguments before the call.
_BEFORE = {
    "domains.kernel_values": _nodes_tag,
    "quadrature.integrate": lambda a, k: ("", len(a[0]), 0),
    "quadrature.build_rule": _rule_tag,
    "transforms.berezin": _op_tag,
    "transforms.berezin_adjoint": _op_tag,
    "transforms.absolute_projection": _op_tag,
    "transforms.bergman_project": _op_tag,
    "opnorm.discretize_berezin": lambda a, k: (domain_name(a[0]), 0, 0),
    "opnorm.br_scan": lambda a, k: (domain_name(a[0]), 0, 0),
    "opnorm.estimate_norm": lambda a, k: (p_name(a[1]), 0, 0),
    "opnorm.product_norm_check": lambda a, k: (p_name(a[0]), 0, 0),
}


def _built_rule(res, args, kwargs):
    return len(res), res.nodes.nbytes


def _file_bytes(res, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return 1, os.path.getsize(path)


# Counts taken from the result after the call (computed, not measured).
_AFTER = {
    "quadrature.build_rule": _built_rule,
    "quadrature.save_rule": _file_bytes,
    "quadrature.load_rule": lambda res, a, k: (1, os.path.getsize(a[0])),
    "opnorm.discretize_berezin": lambda res, a, k: (res.entries.size, 0),
    "opnorm.estimate_norm": lambda res, a, k: (int(res.resolution.get("iterations", 0)), 0),
}


class NullTracer:
    """Tracing off: requests run bare."""

    enabled = False

    @contextlib.contextmanager
    def request(self, name):
        yield

    def instrument(self):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; see the module docstring."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name_id, start, end, parent_index, request_id, tag, count, nbytes)
        self.spans: list = []
        self._stack: list[int] = []
        self._request = -1

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def request(self, name):
        """A top-level span for one request issued by the benchmark."""
        self._request += 1
        nid = self._nid(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, self._request, "", 0, 0)

    def _wrap(self, fn, name):
        nid = self._nid(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tag, count, nbytes = before(args, kwargs) if before else ("", 0, 0)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self._request, tag, count, nbytes)
            if after:
                count, nbytes = after(res, args, kwargs)
                spans[idx] = (nid, t0, t1, parent, self._request, tag, count, nbytes)
            return res

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the public functions of LAYERS wherever a bergman module holds them."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"bergman.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bergman" or modname.startswith("bergman.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, path):
        """Write every span once, as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "request",
                                  "tag", "count", "bytes"],
                       "spans": self.spans}, fh)


class Summary:
    """Aggregates over the spans recorded in [lo, hi): self time per layer,
    per-name totals and medians, computed counts."""

    def __init__(self, tracer: Tracer, lo: int = 0, hi: int | None = None):
        self.names = tracer.names
        self.all = tracer.spans
        self.lo = lo
        self.hi = len(self.all) if hi is None else hi
        child_time = {}
        for idx in range(self.lo, self.hi):
            nid, t0, t1, parent = self.all[idx][:4]
            if parent >= self.lo:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.self_time = {}
        self.top_time = 0.0
        for idx in range(self.lo, self.hi):
            nid, t0, t1, parent = self.all[idx][:4]
            layer = self.names[nid].split(".", 1)[0]
            own = (t1 - t0) - child_time.get(idx, 0.0)
            self.self_time[layer] = self.self_time.get(layer, 0.0) + own
            if parent < self.lo:
                self.top_time += t1 - t0

    def select(self, name, tag=None):
        return [s for s in self.all[self.lo:self.hi]
                if self.names[s[0]] == name and (tag is None or s[5] == tag)]

    def total_s(self, name, tag=None) -> float:
        return sum(s[2] - s[1] for s in self.select(name, tag))

    def median_ms(self, name, tag=None) -> float:
        durs = sorted((s[2] - s[1]) * 1e3 for s in self.select(name, tag))
        if not durs:
            return 0.0
        mid = len(durs) // 2
        return durs[mid] if len(durs) % 2 else 0.5 * (durs[mid - 1] + durs[mid])

    def median_count(self, name, tag=None) -> float:
        counts = sorted(s[6] for s in self.select(name, tag))
        return float(counts[len(counts) // 2]) if counts else 0.0

    def count(self, name, tag=None) -> int:
        return sum(s[6] for s in self.select(name, tag))

    def nbytes(self, name, tag=None) -> int:
        return sum(s[7] for s in self.select(name, tag))

    def ns_per_item(self, name, tag=None) -> float:
        n = self.count(name, tag)
        return self.total_s(name, tag) * 1e9 / n if n else 0.0

    def count_under(self, name, ancestor) -> int:
        """Sum of the counts of ``name`` spans nested anywhere below an ``ancestor`` span."""
        total = 0
        for s in self.select(name):
            p = s[3]
            while p >= 0:
                above = self.all[p]
                if self.names[above[0]] == ancestor:
                    total += s[6]
                    break
                p = above[3]
        return total
