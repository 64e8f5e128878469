"""Per-layer tracing of remskit from outside the package.

While installed, every public function and public method of the traced
modules is replaced by a wrapper that records, per layer key:

- ``calls``: completed and failed calls,
- ``errors``: calls that raised,
- ``self_s``: span duration minus the part covered by child spans,
- ``bytes``: size of the file named by a ``path`` argument, after the call.

A function is replaced at every module that binds it by name, not only where
it is defined: ``gain_operators`` is looked up through ``solver``,
``beamform`` and ``cli``, and patching one of them would miss the calls made
through the others. Functions of the traced modules are keyed by their
defining module (``solver.gain_operators``), methods by module and method
name (``scene.load``). The file writer of the private ``_textio`` module
has no layer of its own, so it is keyed by the module that calls it
(``cli.atomic_write_text`` counts only the files the CLI writes itself).

Functions in ``COUNT_ONLY`` are counted but open no span: they are too short
to time without the timer dominating, and their time stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

PACKAGE = "remskit"
TRACED_MODULES = (
    "scene",
    "radiating",
    "farfield",
    "network",
    "solver",
    "beamform",
    "channel",
    "cli",
)
# private helpers worth a layer of their own, keyed by the calling module
PRIVATE_HELPERS = {"_textio": ("atomic_write_text",)}
COUNT_ONLY = frozenset({"farfield.interp_stencil", "farfield.index_of"})


class LayerStats:
    __slots__ = ("calls", "errors", "self_s", "bytes")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.bytes = 0


class Tracer:
    """Installs wrappers into the remskit modules and collects LayerStats."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def reset(self) -> None:
        self.stats = {}

    def _layer(self, key: str) -> LayerStats:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = LayerStats()
        return st

    def _wrap(self, fn, key: str):
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._layer(key).calls += 1
                return fn(*args, **kwargs)

            return counted

        path_index = _path_arg_index(fn)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                st = self._layer(key)
                st.calls += 1
                st.self_s += dur - frame[1]
                if failed:
                    st.errors += 1
                elif path_index is not None:
                    path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
                    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
                        st.bytes += os.path.getsize(path)

        return spanned

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {
            name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in TRACED_MODULES + tuple(PRIVATE_HELPERS)
        }
        package = importlib.import_module(PACKAGE)
        prefix = PACKAGE + "."

        # functions: one shared key per defining module, patched at every binding
        wrappers: dict[tuple[int, str], object] = {}
        for site_name, site in list(modules.items()) + [("", package)]:
            for attr, obj in list(vars(site).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if not origin.startswith(prefix):
                    continue
                origin = origin[len(prefix):]
                if origin in TRACED_MODULES:
                    key = f"{origin}.{attr}"
                elif attr in PRIVATE_HELPERS.get(origin, ()) and site_name in TRACED_MODULES:
                    key = f"{site_name}.{attr}"
                else:
                    continue
                wrapper = wrappers.get((id(obj), key))
                if wrapper is None:
                    wrapper = wrappers[(id(obj), key)] = self._wrap(obj, key)
                self._patch(site, attr, wrapper)

        # methods: the class object is shared by every binding, so patch it once
        for mod_name in TRACED_MODULES:
            mod = modules[mod_name]
            for cls in list(vars(mod).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    key = f"{mod_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(raw.__func__, key)))
                    elif isinstance(raw, staticmethod):
                        self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, key)))
                    elif inspect.isfunction(raw):
                        self._patch(cls, attr, self._wrap(raw, key))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches = []
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _path_arg_index(fn):
    """Position of a parameter named ``path``, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("path") if "path" in params else None
