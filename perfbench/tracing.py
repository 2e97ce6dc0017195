"""Span tracing around calls into the mulco modules, from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records one span per call: a name, a start, an end and the span that was
open when the call began.  Spans stay in memory until ``write()``.  Self time
is a span's duration minus the time its direct child spans cover.

Where the wrappers must go (see README.md, "Tracing caveats"):

* A wrapper is installed on every module attribute that is bound to the
  original function, not only in the defining module.  ``train.py`` and
  ``cli.py`` import functions by name, so patching ``mulco.scopes.encode``
  alone would miss ``mulco.cli.encode`` and ``mulco.train.encode``.
* Calls through a module's own globals (``scopes.coverage`` calling
  ``encode``, ``Sentence.__post_init__`` calling ``validate_sentence``) see the
  patched global, because Python looks globals up at call time.
* ``import mulco.train`` followed by attribute access yields the *function*
  ``mulco.train``: the package ``__init__`` rebinds the name.  Submodules are
  therefore fetched with ``importlib.import_module``.
* Methods (``AdamW.step``) are patched on the class, which every binding
  shares.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> functions whose calls become spans; "Class.method" patches a class
LAYERS = {
    "model": (
        "forward_sentence",
        "_dir_forward",
        "_dir_backward",
        "backward_sentence",
        "sentence_loss",
        "batch_loss_grads",
    ),
    "train": (
        "AdamW.step",
        "clip_gradients",
        "_make_examples",
        "predict",
        "predict_mentions",
        "evaluate",
    ),
    "scopes": (
        "decode_scored",
        "aggregate",
        "encode",
        "write_labelings",
        "decode_hard",
        "read_labelings",
        "coverage",
    ),
    "corpus": ("load_corpus", "validate_sentence", "save_corpus", "sentence_to_json"),
    "checkpoint": ("save_params", "load_params"),
    "metrics": ("score",),
    "cli": ("main",),
    "toydata": ("generate_toy_corpus",),
}

# cli.main spans are named by subcommand; these are the ones the workloads run
CLI_SUBCOMMANDS = ("validate", "coverage", "encode", "decode", "predict", "eval")


def traced_names() -> list[str]:
    names = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            if (module, func) == ("cli", "main"):
                names.extend(f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS)
            else:
                names.append(f"{module}.{func}")
    return names


def submodule(name: str):
    """``mulco.<name>`` as a module object, never the function that shadows it."""
    return importlib.import_module(f"mulco.{name}")


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block, for the benchmark's own phases."""
        i = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs, counts)
            finally:
                self._close(i)

        return wrapper

    def _wrap_cli_main(self, fn):
        ids = {sub: self.name_id(f"cli.main.{sub}") for sub in CLI_SUBCOMMANDS}

        @functools.wraps(fn)
        def wrapper(argv=None):
            sub = argv[0] if argv else "?"
            nid = ids.get(sub)
            if nid is None:
                nid = ids[sub] = self.name_id(f"cli.main.{sub}")
            i = self._open(nid)
            try:
                return fn(argv)
            finally:
                self._close(i)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every ``mulco`` module binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "mulco" or key.startswith("mulco."))
        ]
        for module_name, funcs in LAYERS.items():
            home = submodule(module_name)
            for func in funcs:
                name = f"{module_name}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(original, name, HOOKS.get(name)))
                    continue
                original = getattr(home, func)
                if name == "cli.main":
                    wrapper = self._wrap_cli_main(original)
                else:
                    wrapper = self._wrap(original, name, HOOKS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _durations(self) -> tuple[list[float], list[float]]:
        """Per span: duration, and duration minus the direct children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration ``s``, ``self_s`` and ``calls``."""
        dur, own = self._durations()
        out: dict[str, dict[str, float]] = {
            name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names
        }
        for i, nid in enumerate(self.span_name):
            row = out[self.names[nid]]
            row["s"] += dur[i]
            row["self_s"] += own[i]
            row["calls"] += 1
        return out

    def self_time_under(self, root_name: str, names: tuple[str, ...]) -> tuple[float, float]:
        """(summed self time of ``names`` inside ``root_name`` spans, total
        duration of the ``root_name`` spans)."""
        dur, own = self._durations()
        root_id = self._name_ids.get(root_name, -1)
        wanted = {self._name_ids[x] for x in names if x in self._name_ids}
        inside = [False] * len(dur)
        self_s = root_s = 0.0
        for i, (nid, p) in enumerate(zip(self.span_name, self.parent)):
            inside[i] = nid == root_id or (p >= 0 and inside[p])
            if nid == root_id:
                root_s += dur[i]
            elif inside[i] and nid in wanted:
                self_s += own[i]
        return self_s, root_s

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "span_name": self.span_name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "counts": dict(self.counts),
                },
                separators=(",", ":"),
            ),
            encoding="utf-8",
        )


def _count_clipped(fn, args, kwargs, counts):
    total = fn(*args, **kwargs)
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    counts["train.clip_gradients.steps"] += 1
    counts["train.clip_gradients.clipped"] += int(max_norm > 0.0 and total > max_norm)
    return total


def _count_candidates(fn, args, kwargs, counts):
    out = fn(*args, **kwargs)
    counts["scopes.decode_scored.candidates"] += len(out)
    return out


def _count_kept(fn, args, kwargs, counts):
    groups = [list(g) for g in args[0]]  # materialized so it can be counted
    counts["scopes.aggregate.candidates_in"] += sum(len(g) for g in groups)
    out = fn(groups, *args[1:], **kwargs)
    counts["scopes.aggregate.kept"] += len(out)
    return out


HOOKS = {
    "train.clip_gradients": _count_clipped,
    "scopes.decode_scored": _count_candidates,
    "scopes.aggregate": _count_kept,
}
