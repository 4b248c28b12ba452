"""In-memory timing spans with self time, and wrappers patched where callers look.

A span records a name, a start, an end and the span that was open when it
began (its parent).  A layer's *self time* is the duration of its spans minus
the part of that interval their child spans cover, so the self times of all
layers add up to the time spent inside the outermost spans.  A call made
directly inside an open span of the same name (recursion, or one public
function of a layer calling another) is folded into that span rather than
opening a new one, so ``calls`` counts entries into a layer from outside it.

:class:`Patcher` installs the wrappers.  Python code looks a function up in
the namespace of the module that *calls* it (``from x import f`` copies the
binding), so a function is replaced in every loaded module under a package
prefix that binds the original object, and a method on its class and on every
subclass that overrides it.  :meth:`Patcher.restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``observe(args, kwargs, result) -> {key: amount}``, added to the span's counts.
Observer = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, float]]
#: A fixed span name, or one computed from the call's positional arguments.
SpanName = Union[str, Callable[[Tuple[Any, ...]], str]]


class Tracer:
    """Collects spans and counts of one process, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent index or None]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_name(self) -> Optional[str]:
        """Name of the innermost span open on this thread, if any."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, stack[-1] if stack else None])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack().pop()

    def add(self, name: str, key: str, amount: float = 1) -> None:
        with self._lock:
            bucket = self.counts.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable[..., Any],
        name: SpanName,
        observe: Optional[Observer] = None,
        span: bool = True,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name`` (``span=False``: counted only).

        Every call adds 1 to the ``calls`` count of its name; ``observe`` adds
        further counts derived from the call and its result.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(args)
            if span and self.open_name() == label:
                return fn(*args, **kwargs)
            if span:
                index = self.begin(label)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
            else:
                result = fn(*args, **kwargs)
            self.add(label, "calls")
            if observe is not None:
                for key, amount in observe(args, kwargs, result).items():
                    self.add(label, key, amount)
            return result

        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s", "total_s"}}`` over every finished span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if end is not None and parent is not None:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, covered):
            if end is None:
                continue
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0})
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


class Patcher:
    """Replaces functions and methods where callers look them up; undoes it."""

    def __init__(self, prefix: str) -> None:
        #: Only modules whose name starts with this prefix are rebound.
        self.prefix = prefix
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(
        self, module: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> int:
        """Rebind ``module.attr`` in every module that binds it; returns how many."""
        original = getattr(module, attr)
        wrapper = make(original)
        rebound = 0
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None)
            if not isinstance(name, str) or not (name == self.prefix or name.startswith(self.prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    rebound += 1
        return rebound

    def method(
        self, cls: type, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> int:
        """Wrap ``cls.attr`` and every loaded subclass's own override of it."""
        rebound = 0
        for klass in [cls, *_subclasses(cls)]:
            if attr in vars(klass):
                self._set(klass, attr, make(vars(klass)[attr]))
                rebound += 1
        return rebound

    def restore(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
