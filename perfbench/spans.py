"""In-memory span recording around the program's public layer functions.

A traced benchmark run imports this module inside the program's own
processes (through ``launch.py``) and calls :func:`install`, which
replaces each target function with a wrapper that records one span per
call: name, start, end, parent span, and a root id shared by every span
of one grid cell (or, on the client side, one service job).  Nothing
under ``src/`` is modified; the wrappers are bound where the program
looks the functions up.

Spans stay in memory.  The launching process writes its own with
:func:`flush` when it exits; forked pool workers write theirs from a
``multiprocessing`` exit finalizer, one ``spans-<pid>.json`` file each.
The benchmark process then reads them all back with :func:`load` and
reduces them with :func:`summarize`.

The module imports nothing from the program at import time, so the
benchmark process can use the reduction helpers without loading it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Environment variable naming the directory span files are written to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _cell_of(resolution, orientation) -> str:
    return f"{resolution.name}/{orientation.value}"


def _n_voxels(artifact) -> int:
    return int(artifact.model.size)


#: (span name, module, class or None, attribute, namespaces to rebind
#: a module-level function in, root-id function, count function).
#:
#: Chain stage functions are rebound only in ``repro.pipeline.chain``,
#: where the stage runners look them up, so a span covers exactly one
#: stage's work (``analyze_split_seam`` slices internally; those calls
#: stay inside the seam span instead of inflating the slice stage).
CHAIN_TARGETS = (
    ("cad.export_stl", "repro.cad.model", "CadModel", "export_stl",
     (), None, lambda r: r.n_triangles),
    ("slicer.resolve", "repro.slicer.coincident", None,
     "resolve_coincident_faces", ("repro.pipeline.chain",), None, None),
    ("slicer.seam", "repro.slicer.seams", None, "analyze_split_seam",
     ("repro.pipeline.chain",), None, None),
    ("slicer.slice", "repro.slicer.slicer", None, "slice_mesh",
     ("repro.pipeline.chain",), None, lambda r: r.n_layers),
    ("slicer.toolpath", "repro.slicer.toolpath", None, "generate_toolpaths",
     ("repro.pipeline.chain",), None, None),
    ("slicer.gcode", "repro.slicer.gcode", None, "generate_gcode",
     ("repro.pipeline.chain",), None, lambda r: len(r.lines)),
    ("printer.firmware", "repro.printer.firmware", "PrinterFirmware", "run",
     (), None, None),
    ("printer.deposit", "repro.printer.deposition", "DepositionSimulator",
     "build_from_slices", (), None, _n_voxels),
    # assess_print travels to pool workers pickled by reference, so it
    # is rebound in every namespace that holds it (pickle then finds the
    # wrapper under the original qualified name, in parent and worker).
    ("obfuscade.assess", "repro.obfuscade.quality", None, "assess_print",
     ("repro.obfuscade.quality", "repro.obfuscade.attack",
      "repro.service.core", "repro"), None, None),
    ("obfuscade.protect", "repro.obfuscade.obfuscator", "Obfuscator",
     "protect_tensile_bar", (), None, None),
    ("pipeline.fingerprint", "repro.pipeline.report", None,
     "outcome_fingerprint",
     ("repro.pipeline.parallel", "repro.pipeline.scheduler"), None, None),
    ("pipeline.disk_get_or_run", "repro.pipeline.disk", "DiskStageCache",
     "get_or_run", (), None, None),
    # Cell-scoped roots: they carry the cell label every nested span
    # inherits as its root id.
    ("pipeline.stage", "repro.pipeline.graph", None, "run_stage",
     ("repro.pipeline.chain", "repro.pipeline.scheduler"),
     lambda a, k, r: a[4], None),
    ("pipeline.finalize", "repro.pipeline.scheduler", None,
     "execute_finalize", ("repro.pipeline.scheduler",),
     lambda a, k, r: a[4], None),
    ("sweep.cell", "repro.pipeline.parallel", None, "execute_cell",
     ("repro.obfuscade.attack",), lambda a, k, r: _cell_of(a[2], a[3]),
     None),
)

#: The service SDK calls, traced in the load generator's own process;
#: the root id is the job id.
CLIENT_TARGETS = (
    ("client.submit", "repro.client", "ServiceClient", "submit",
     (), lambda a, k, r: r.job_id if r is not None else None, None),
    ("client.wait_result", "repro.client", "ServiceClient", "wait_result",
     (), lambda a, k, r: a[1], None),
)

_local = threading.local()
_ids = itertools.count(1)
_spans: List[dict] = []
_pid: Optional[int] = None
_out_dir: Optional[Path] = None


def _buffer() -> List[dict]:
    """This process's span list; a forked child starts a fresh one and
    arranges to write it out when the child exits."""
    global _spans, _pid
    pid = os.getpid()
    if pid != _pid:
        first = _pid is None
        _spans, _pid = [], pid
        if not first:
            from multiprocessing import util

            util.Finalize(None, flush, exitpriority=100)
    return _spans


def _stack() -> list:
    pid = os.getpid()
    if getattr(_local, "pid", None) != pid:
        _local.pid, _local.stack = pid, []
    return _local.stack


def _wrap(fn: Callable, name: str, root_fn, count_fn) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        span = {
            "name": name,
            "id": f"{os.getpid()}:{next(_ids)}",
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else None,
            "pid": os.getpid(),
        }
        stack.append(span)
        result = None
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if span["root"] is None and root_fn is not None:
                try:
                    span["root"] = root_fn(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            if count_fn is not None and result is not None:
                span["n"] = count_fn(result)
            _buffer().append(span)

    return wrapper


def install(targets=CHAIN_TARGETS) -> List[str]:
    """Wrap every target; returns the span names that could not be
    installed (a renamed or removed function), so the caller can report
    them instead of silently measuring nothing.  Spans are written under
    ``$PERFBENCH_TRACE_DIR`` when that is set."""
    global _out_dir
    if os.environ.get(TRACE_DIR_ENV):
        _out_dir = Path(os.environ[TRACE_DIR_ENV])
    _buffer()
    missing = []
    for name, module, cls, attr, namespaces, root_fn, count_fn in targets:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = _wrap(original, name, root_fn, count_fn)
        if cls is not None:
            setattr(owner, attr, wrapper)
            continue
        bound = False
        for ns_name in namespaces:
            try:
                ns = importlib.import_module(ns_name)
            except ImportError:
                continue
            if getattr(ns, attr, None) is original:
                setattr(ns, attr, wrapper)
                bound = True
        if not bound:
            missing.append(name)
    return missing


def flush() -> None:
    """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
    if _out_dir is None or os.getpid() != _pid:
        return
    _out_dir.mkdir(parents=True, exist_ok=True)
    path = _out_dir / f"spans-{_pid}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(_spans))
    os.replace(tmp, path)


def load(out_dir) -> List[dict]:
    """Every span written under ``out_dir``, from every process."""
    rows: List[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        rows.extend(json.loads(path.read_text()))
    return rows


def collected() -> List[dict]:
    """The spans recorded so far in this process."""
    return list(_buffer())


def summarize(spans: List[dict]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, inclusive seconds, self seconds (the span's
    duration minus its child spans') and the summed work count.

    Children always run on their parent's thread, nested inside it, so
    their durations never overlap and subtracting their sum is exact.
    """
    child_s: Dict[str, float] = {}
    for s in spans:
        if s.get("parent") is not None:
            child_s[s["parent"]] = (
                child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    out: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
        )
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_s.get(s["id"], 0.0)
        row["n"] += s.get("n", 0)
    return out
