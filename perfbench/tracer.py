"""Span and count wrappers installed around meklerkit's public functions.

The benchmark measures each layer only from outside: it replaces a module
function, method or property with a wrapper that records what happened and
calls the original.  Two passes exist because they disturb timing
differently:

* ``SpanTracer`` wraps the layer functions in ``SPANS``.  Every call records
  a span (name, start, end, parent) in flat in-memory arrays, plus a
  deterministic work count taken from the call's result.
* ``CountTracer`` wraps the hot element operations in ``COUNTS`` with
  count-only wrappers.  They are called millions of times, so a span each
  would swamp the self times of the layers above them.

A wrapped function must be replaced at every place it is bound: modules
import helpers with ``from .groups import ...`` and the package re-exports
names, so patching only the defining module would leave stale aliases that
bypass the trace.  ``install`` rebinds every alias it finds, and
``unpatched_aliases`` reports any that were missed.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from time import perf_counter


def _len_of(key: str):
    def work(counts, result):
        if result is not None:
            counts[key] += len(result)
    return work


def _audit_rows(counts, result):
    counts["omni.rows"] += len(result.rows)
    counts["omni.witnessed_rows"] += sum(1 for r in result.rows if r.witnessed)


def _array_rows(counts, result):
    counts["mekler.multiply_arrays.rows"] += math.prod(result[0].shape[:-1])


def _audit_pairs(counts, result):
    counts["graphs.audit_extension_property.pairs"] += result.pair_count


def _manifest_bytes(counts, result):
    counts["manifest.format_manifest.bytes"] += len(result.encode("utf-8"))


# (module, attribute path, span name, work count); the span name is the
# metric prefix: <module>.<function>.
SPANS = [
    ("groups", "closure_elements", "groups.closure_elements",
     _len_of("groups.closure_elements.elements")),
    ("groups", "subgroups_containing", "groups.subgroups_containing",
     _len_of("groups.subgroups_containing.found")),
    ("groups", "automorphisms", "groups.automorphisms", None),
    ("groups", "enumerate_homs", "groups.enumerate_homs", None),
    ("groups", "brute_iso", "groups.brute_iso", None),
    ("groups", "direct_sum", "groups.direct_sum", None),
    ("groups", "cayley_embedding_even", "groups.cayley_embedding_even", None),
    ("groups", "normal_closure", "groups.normal_closure", None),
    ("groups", "quotient_group", "groups.quotient_group", None),
    ("omni", "omni_audit", "omni.omni_audit", _audit_rows),
    ("omni", "omni_check", "omni.omni_check", None),
    ("limits", "make_cayley_tower", "limits.make_cayley_tower", None),
    ("limits", "build_D", "limits.build_D", None),
    ("limits", "kernel_at_stage", "limits.kernel_at_stage", None),
    ("limits", "quotient_is_A", "limits.quotient_is_A", None),
    ("limits", "check_normal_absorption", "limits.check_normal_absorption", None),
    ("mekler", "PcGroup.multiply_arrays", "mekler.multiply_arrays", _array_rows),
    ("mekler", "PcGroup.multiplication_table", "mekler.multiplication_table", None),
    ("mekler", "recover_graph", "mekler.recover_graph", None),
    ("mekler", "build_mekler", "mekler.build_mekler", None),
    ("graphs", "extend", "graphs.extend", None),
    ("graphs", "audit_extension_property", "graphs.audit_extension_property", _audit_pairs),
    ("graphs", "is_nice", "graphs.is_nice", None),
    ("cli", "cmd_reduce", "cli.cmd_reduce", None),
    ("cli", "cmd_tower", "cli.cmd_tower", None),
    ("manifest", "format_manifest", "manifest.format_manifest", _manifest_bytes),
]

# `Hom.mapping` is a lazily built table behind a property; only builds get a
# span, because cache hits happen on every hom application.
HOM_TABLE = "groups.hom_table"

# (module, attribute path, counter prefix, also sum the permutation degree)
COUNTS = [
    ("groups", "Perm.__mul__", "groups.perm_mul", True),
    ("groups", "Perm.__invert__", "groups.perm_inv", False),
    ("mekler", "PcGroup.multiply", "mekler.pc_mul", False),
    ("graphs", "check_extension_property", "graphs.check_extension_property", False),
]

SPAN_NAMES = [name for _, _, name, _ in SPANS] + [HOM_TABLE]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "meklerkit" or name.startswith("meklerkit."))]


def _owner_and_attr(module: str, path: str):
    owner = sys.modules["meklerkit." + module]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class _Patcher:
    """Replaces objects at every binding inside the package and can undo it."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.originals = {}  # id(original) -> original
        self.undo = []

    def _namespaces(self):
        for mod in _package_modules() + self.extra_modules:
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__.startswith("meklerkit"):
                    yield value

    def replace(self, module: str, path: str, make):
        owner, attr = _owner_and_attr(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        replacement = make(original)
        self.originals[id(original)] = original
        for ns in self._namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, replacement)
                    self.undo.append((ns, name, original))

    def restore(self):
        for ns, name, original in reversed(self.undo):
            setattr(ns, name, original)
        self.undo.clear()

    def unpatched_aliases(self) -> list[str]:
        """Every binding that still holds an original object."""
        stale = []
        for ns in self._namespaces():
            for name, value in vars(ns).items():
                if id(value) in self.originals and self.originals[id(value)] is value:
                    stale.append(f"{getattr(ns, '__name__', ns)}.{name}")
        return sorted(set(stale))


class SpanTracer(_Patcher):
    """Records one span per wrapped call and the work counts beside it."""

    def __init__(self, extra_modules=()):
        super().__init__(extra_modules)
        self.names = list(SPAN_NAMES)
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.work = Counter()

    def _wrap(self, name: str, fn, work):
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts = self.stack, self.work

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if work is not None:
                work(counts, result)
            return result

        return span

    def install(self) -> "SpanTracer":
        for module, path, name, work in SPANS:
            self.replace(module, path, lambda fn, n=name, w=work: self._wrap(n, fn, w))

        def hom_table(prop):
            build = self._wrap(HOM_TABLE, prop.fget, _len_of(HOM_TABLE + ".entries"))

            def fget(hom):
                if getattr(hom, "_mapping", None) is not None:
                    return prop.fget(hom)
                return build(hom)

            return property(fget, doc=prop.__doc__)

        self.replace("groups", "Hom.mapping", hom_table)
        return self

    def dump(self, path) -> None:
        """Write the spans as five flat arrays; see ``read_spans``."""
        with open(path, "wb") as fh:
            header = "\n".join(self.names).encode("utf-8")
            array("q", [len(header), len(self.starts)]).tofile(fh)
            fh.write(header)
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path):
    """Inverse of ``SpanTracer.dump``: (names, name_ids, parents, starts, ends)."""
    with open(path, "rb") as fh:
        sizes = array("q")
        sizes.fromfile(fh, 2)
        names = fh.read(sizes[0]).decode("utf-8").split("\n")
        n = sizes[1]
        out = []
        for code in ("H", "l", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return (names, *out)


class CountTracer(_Patcher):
    """Count-only wrappers on the hot element operations."""

    def __init__(self, extra_modules=()):
        super().__init__(extra_modules)
        self.totals = {}

    def install(self) -> "CountTracer":
        for module, path, prefix, with_points in COUNTS:
            self.replace(module, path,
                         lambda fn, p=prefix, w=with_points: self._counted(p, fn, w))
        return self

    def _counted(self, prefix: str, fn, with_points: bool):
        calls = [0]
        points = [0]
        self.totals[prefix + ".count"] = calls
        if with_points:
            self.totals[prefix + ".points"] = points

            @functools.wraps(fn)
            def counted(self_, other):
                calls[0] += 1
                points[0] += len(self_.images)
                return fn(self_, other)
        else:
            @functools.wraps(fn)
            def counted(*args):
                calls[0] += 1
                return fn(*args)
        return counted

    @property
    def work(self) -> dict:
        return {key: cell[0] for key, cell in self.totals.items()}
