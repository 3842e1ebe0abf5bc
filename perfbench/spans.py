"""Span-and-count tracing of boundarylab's public functions, from outside.

A :class:`Tracer` rebinds each traced function everywhere the package holds a
reference to it (the defining module, every module that imported the name,
and the package namespace), so calls made inside the library are seen too.
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/``
changes.

Each span records its name, start, end, parent span and op id.  Spans are
kept in memory (compact arrays) and written by :meth:`Tracer.write`.  Self
time is tracked as spans close: a span's self time is its duration minus the
time its child spans cover, and a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("words", "cosets", "spaces", "measures", "checks", "scenario")


def _letters_in(args, kwargs):
    letters = args[0] if args else kwargs["letters"]
    return letters if isinstance(letters, (tuple, list)) else tuple(letters)


def _plan():
    """(module, public name, span name, count hook) for every traced function.

    A count hook gets ``(args, kwargs, result)`` and returns extra
    ``{counter: amount}`` after a call that returned.
    """

    def reduce_hook(args, kwargs, result):
        return {"words.letters_reduced": len(args[0])}

    def ball_hook(args, kwargs, result):
        return {"words.ball_words": len(result)}

    def enumerate_hook(args, kwargs, result):
        return {"cosets.cosets_built": result.size}

    def rewrite_hook(args, kwargs, result):
        lam = args[2] if len(args) > 2 else kwargs["lam"]
        return {"cosets.rewrite_letters": len(lam.letters)}

    def push_hook(args, kwargs, result):
        nu = args[1] if len(args) > 1 else kwargs["nu"]
        return {"measures.atoms_pushed": len(nu.atoms)}

    def contract_hook(args, kwargs, result):
        if result is None:
            return {"checks.cert_inconclusive": 1}
        return {"checks.cert_steps": len(result.steps)}

    def report_hook(args, kwargs, result):
        return {"scenario.report_bytes": len(result.encode("utf-8"))}

    return (
        ("words", "reduce_letters", "words.reduce", reduce_hook),
        ("words", "cached_ball", "words.ball", ball_hook),
        ("cosets", "enumerate_cosets", "cosets.enumerate", enumerate_hook),
        ("cosets", "schreier_basis", "cosets.schreier", None),
        ("cosets", "rewrite_in_basis", "cosets.rewrite", rewrite_hook),
        ("spaces", "InducedSpace.act", "spaces.act", None),
        ("spaces", "BoundarySpace.act", "spaces.act", None),
        ("spaces", "boundary_act", "spaces.boundary_act", None),
        ("spaces", "boundary_point", "spaces.normal_form", None),
        ("spaces", "cylinder_after", "spaces.cylinder_after", None),
        ("measures", "pushforward_group", "measures.pushforward", push_hook),
        ("measures", "isometry_defect", "measures.defect", None),
        ("checks", "contract_measure", "checks.contract", contract_hook),
        ("checks", "replay", "checks.replay", None),
        ("checks", "check_minimal_symbolic", "checks.minimal_symbolic", None),
        ("checks", "check_sp_extension", "checks.sp_extension", None),
        ("scenario", "run_scenario", "scenario.run", None),
        ("scenario", "replay_certificate", "scenario.replay_certificate", None),
        ("scenario", "report_json_text", "scenario.report_json", report_hook),
    )


class Tracer:
    """Install with :meth:`install`, set :attr:`op` per op, then :meth:`uninstall`."""

    def __init__(self) -> None:
        self.op = -1
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)  # "span:ExceptionName"
        # span records, indexed by span id (assigned when the span opens)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("boundarylab")
        modules = [package] + [importlib.import_module(f"boundarylab.{m}") for m in MODULES]
        for mod_name, public, span, hook in _plan():
            home = importlib.import_module(f"boundarylab.{mod_name}")
            if "." in public:
                cls_name, meth = public.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span, hook))
                continue
            original = getattr(home, public)
            wrapper = self._wrap(original, span, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------------

    def _wrap(self, fn, span: str, hook):
        name_id = len(self.names)
        self.names.append(span)
        materialize = span == "words.reduce"
        stack = self._stack
        active = self._active
        calls, counts = self.calls, self.counts
        inclusive, self_time, raised = self.inclusive_s, self.self_s, self.raised
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if materialize:
                # a generator argument is materialized so its length can be counted
                args = (_letters_in(args, kwargs),)
                kwargs = {}
            sid = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            active[span] += 1
            start = perf_counter()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[f"{span}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                s_end[sid] = end
                stack.pop()
                active[span] -= 1
                dur = end - start
                self_time[span] += dur - frame[1]
                if not active[span]:
                    inclusive[span] += dur
                if stack:
                    stack[-1][1] += dur
                calls[span] += 1
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, t in self.self_s.items():
            out[span.split(".")[0]] += t
        return out

    def span_count(self) -> int:
        return len(self.span_start)

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span: id, parent, op, name, and
        start and end in microseconds from the first span's start."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                    f"{names[self.span_name[sid]]}\t{(self.span_start[sid] - t0) * 1e6:.1f}\t"
                    f"{(self.span_end[sid] - t0) * 1e6:.1f}\n"
                )
