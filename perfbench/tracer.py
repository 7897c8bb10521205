"""Span tracing by wrapping public library functions from outside.

A :class:`Tracer` replaces a public function with a timing wrapper in
every ``quartic_galois`` module that binds it, so calls made through any
caller's lookup are recorded.  The package source is not edited, and
:meth:`Tracer.restore` puts every original object back.

Each span is ``[id, name, parent_id, op_id, start, end, attrs]`` with
times from :func:`time.perf_counter`.  Spans stay in memory until the
run writes them out.  A target that no longer exists is recorded in
:attr:`Tracer.absent` instead of failing, so a later refactor shows up
as an absent layer.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "quartic_galois"

# (defining module, public name) for every traced layer boundary
TARGETS = (
    ("counting", "count_points"),
    ("counting", "l_polynomial"),
    ("curve", "find_bad_prime_candidates"),
    ("curve", "singular_points"),
    ("irreducibility", "irreducibility_certify"),
    ("irreducibility", "witness_search"),
    ("polys", "int_resultant"),
    ("primitivity", "primitivity_witnesses"),
    ("mod2", "mod2_orders"),
    ("hecke_io", "load_hecke_charpolys"),
    ("modsym", "skeleton"),
    ("modsym", "hecke_charpolys_multimodular"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "render_report"),
)


def _count_points_attrs(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    m = args[2] if len(args) > 2 else kwargs["m"]
    return {"p": int(p), "m": int(m)}


# span attributes recorded from a call's arguments, by span name
ATTRS = {"counting.count_points": _count_points_attrs}


def package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._patched = []  # (module, attribute, original)

    def install(self):
        for modname, fname in TARGETS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, modname))
            original = getattr(mod, fname, None)
            if original is None:
                self.absent.append("%s.%s" % (modname, fname))
                continue
            wrapper = self._wrap("%s.%s" % (modname, fname), original)
            for m in package_modules():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        attr_fn = ATTRS.get(name)
        attrs = attr_fn(args, kwargs) if attr_fn else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, name, parent, self.op_id, start, end, attrs])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper
