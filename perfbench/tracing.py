"""Span recording and self-time attribution for the traced run.

The benchmark times calls into each layer from its own files: every
call site listed in ``design.json`` is replaced by a wrapper that
records one span (name, start, end, parent span, request). Spans stay in
memory and are written out when the run ends. The program under test is
not edited; the wrappers are installed in the benchmark process and,
for the service workloads, by the daemon launcher before it serves.

Clock: ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is shared by
every process on the host, so client and daemon spans share a timeline.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def load_design() -> dict:
    """The workload and layer table in ``design.json``."""
    return json.loads((Path(__file__).parent / "design.json").read_text())


class Request:
    """The request a span belongs to. Its id may arrive after the
    request started (a batch id comes back with the submit answer), so
    spans hold this object and read the id when they are written out."""

    __slots__ = ("id",)

    def __init__(self, rid: Optional[str] = None) -> None:
        self.id = rid


_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)
_PARENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=0)

_TAGS: Dict[str, Callable[[object], bool]] = {
    "found": lambda result: result is not None,
    "done": lambda result: result.get("status") in ("done", "failed"),
}


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in the submitter's context, so a
    pool worker's spans keep their request and parent span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(
            contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.clock = time.monotonic
        self._ids = itertools.count(1)
        #: (id, parent, name, start, end, Request|None, tag|None);
        #: list.append is atomic, so worker threads share it safely
        self._spans: List[tuple] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn: Callable, tag: Optional[str] = None,
             request: Optional[str] = None) -> Callable:
        """``fn`` recording one span per call.

        ``request="arg"`` starts a new request whose id is the call's
        second positional argument (``job_status(self, batch_id)``);
        ``request="result"`` takes it from the answer's ``"id"``.
        """
        spans, ids, clock = self._spans, self._ids, self.clock
        tag_of = _TAGS[tag] if tag else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            req_token = None
            if request is not None:
                req = Request(args[1] if request == "arg" else None)
                req_token = _REQUEST.set(req)
            req = _REQUEST.get()
            result = returned = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                _PARENT.reset(token)
                if req_token is not None:
                    if request == "result" and returned:
                        req.id = result["id"]
                    _REQUEST.reset(req_token)
                spans.append((sid, parent, name, start, end, req,
                              tag_of(result) if tag_of and returned
                              else None))

        return traced

    def request_span(self, req: Request):
        """Context manager: the root span of one measured request."""
        return _RootSpan(self, req)

    def set_request(self, req: Request) -> contextvars.Token:
        """Make ``req`` current without recording a span."""
        return _REQUEST.set(req)

    @staticmethod
    def reset_request(token: contextvars.Token) -> None:
        _REQUEST.reset(token)

    # -- installation --------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules: Iterable[str]) -> None:
        """Wrap every ``design.json`` call site inside ``modules`` and
        make ``repro.service.batch``'s thread pool carry the context."""
        modules = set(modules)
        for layer in load_design()["layers"]:
            for call in layer["calls"]:
                module_name, _, attr = call["site"].partition(":")
                if module_name not in modules:
                    continue
                owner = importlib.import_module(module_name)
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                self.patch(owner, attr, self.wrap(
                    call["name"], getattr(owner, attr), tag=call.get("tag"),
                    request=call.get("request")))
        if "repro.service.batch" in modules:
            batch = importlib.import_module("repro.service.batch")
            self.patch(batch, "ThreadPoolExecutor", ContextThreadPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def records(self) -> List[dict]:
        """The spans with a resolved request id, ready for JSON."""
        out = []
        for sid, parent, name, start, end, req, tag in list(self._spans):
            out.append({
                "proc": self.process, "id": sid, "parent": parent,
                "name": name, "start": start, "end": end,
                "rid": req.id if req is not None else None, "tag": tag,
            })
        return out

    def clear(self) -> None:
        self._spans.clear()


class _RootSpan:
    NAME = "request"

    def __init__(self, tracer: Tracer, req: Request) -> None:
        self.tracer, self.req = tracer, req

    def __enter__(self) -> Request:
        self.sid = next(self.tracer._ids)
        self.tokens = (_PARENT.set(self.sid), _REQUEST.set(self.req))
        self.start = self.tracer.clock()
        return self.req

    def __exit__(self, *exc) -> None:
        end = self.tracer.clock()
        _PARENT.reset(self.tokens[0])
        _REQUEST.reset(self.tokens[1])
        self.tracer._spans.append(
            (self.sid, 0, self.NAME, self.start, end, self.req, None))


# ----------------------------------------------------------------------
# Attribution.
# ----------------------------------------------------------------------
def attribute(spans: List[dict]) -> dict:
    """Split each request's wall time among the spans that cover it.

    A request's total is its root span (``"request"``, recorded by the
    benchmark around one measured operation). At every instant of it,
    the time goes to the highest-ranked open span of that request:
    daemon spans outrank client spans (while the daemon works on the
    batch, the client only waits), and within a process a deeper span
    outranks its ancestors. For spans nested in one thread this is the
    usual self time (duration minus the part its children cover); the
    root's share is the unattributed remainder.

    Returns ``{"self_s": {name: s}, "calls": {name: n}, "tags": {name:
    [true, total]}, "total_s", "unattributed_s", "requests"}``.
    """
    by_request: Dict[str, List[dict]] = {}
    for s in spans:
        if s["rid"] is not None:
            by_request.setdefault(s["rid"], []).append(s)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    tags: Dict[str, List[int]] = {}
    total = unattributed = 0.0
    requests = 0
    for group in by_request.values():
        roots = [s for s in group if s["name"] == _RootSpan.NAME]
        if len(roots) != 1:
            continue  # daemon-only work outside a measured request
        root = roots[0]
        t0, t1 = root["start"], root["end"]
        requests += 1
        total += t1 - t0
        depth = _depths(group)
        ranked = []
        for s in group:
            start, end = max(s["start"], t0), min(s["end"], t1)
            if s is not root:
                calls[s["name"]] = calls.get(s["name"], 0) + 1
                if s["tag"] is not None:
                    hit = tags.setdefault(s["name"], [0, 0])
                    hit[0] += bool(s["tag"])
                    hit[1] += 1
            if end > start:
                rank = (s["proc"] != "client", depth[(s["proc"], s["id"])],
                        s["start"])
                ranked.append((start, end, rank, s["name"]))
        owned = _sweep(ranked)
        for name, seconds in owned.items():
            if name == _RootSpan.NAME:
                unattributed += seconds
            else:
                self_s[name] = self_s.get(name, 0.0) + seconds
    return {"self_s": self_s, "calls": calls, "tags": tags,
            "total_s": total, "unattributed_s": unattributed,
            "requests": requests}


def _depths(group: List[dict]) -> Dict[Tuple[str, int], int]:
    by_key = {(s["proc"], s["id"]): s for s in group}
    depth: Dict[Tuple[str, int], int] = {}

    def of(key) -> int:
        if key not in depth:
            parent = (key[0], by_key[key]["parent"])
            depth[key] = of(parent) + 1 if parent in by_key else 0
        return depth[key]

    for key in by_key:
        of(key)
    return depth


def _sweep(ranked: List[tuple]) -> Dict[str, float]:
    """Time owned by each name when, at every instant, the open span
    with the highest rank owns it."""
    edges = sorted({t for start, end, _, _ in ranked for t in (start, end)})
    owned: Dict[str, float] = {}
    open_spans: List[tuple] = []
    by_start = sorted(ranked)
    i = 0
    for a, b in zip(edges, edges[1:]):
        while i < len(by_start) and by_start[i][0] <= a:
            open_spans.append(by_start[i])
            i += 1
        open_spans = [s for s in open_spans if s[1] > a]
        if open_spans:
            top = max(open_spans, key=lambda s: s[2])
            owned[top[3]] = owned.get(top[3], 0.0) + (b - a)
    return owned
