"""Layer spans for the traced run, recorded from outside the package.

The tracer replaces public functions at the names their callers look up
(``cli.solve_bae``, ``oracle.sector_matrix``, ...) with wrappers that record
a span (name, start, end, parent, job id, a few annotations) and restores
the originals afterwards, so a traced job runs exactly the code an untraced
one runs.  A call site the package no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0.  ``lambda_fn`` and ``s_matrix``
are called tens of thousands of times per verify job; they are only
counted, and their time lies inside the span that called them.  Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from bethe_forge import bethe, cli, constraints, families, oracle, reductions

JOB_SPAN = "cli.main"

# span name -> module the span's self time is charged to
LAYER_OF = {
    JOB_SPAN: "cli",
    "constraints.is_cba_solvable": "constraints",
    "families.classify": "families",
    "reductions.reduce_hamiltonian": "reductions",
    "bethe.solve_bae": "bethe",
    "bethe.assemble_eigenvector": "bethe",
    "bethe.to_vector": "bethe",
    "bethe.verify_eigenpair": "bethe",
    "hamiltonian.sector_basis": "hamiltonian",
    "oracle.sector_matrix": "oracle",
    "oracle.sector_spectrum": "oracle",
    "oracle.compare": "oracle",
}
LAYERS = ("hamiltonian", "constraints", "families", "reductions", "bethe",
          "oracle", "cli")


def _solve_info(args, kwargs, out):
    return {"M": args[2], "root_sets": len(out)}


def _assemble_info(args, kwargs, out):
    return {"null": bool(out.is_null)}


# (owner, attribute, span name, annotation) for every spanned call site
SPANNED = (
    (constraints, "is_cba_solvable", "constraints.is_cba_solvable", None),
    (families, "classify", "families.classify", None),
    (reductions, "reduce_hamiltonian", "reductions.reduce_hamiltonian", None),
    (cli, "solve_bae", "bethe.solve_bae", _solve_info),
    (cli, "assemble_eigenvector", "bethe.assemble_eigenvector", _assemble_info),
    (bethe.SectorEigenvector, "to_vector", "bethe.to_vector", None),
    (cli, "verify_eigenpair", "bethe.verify_eigenpair", None),
    (bethe, "sector_basis", "hamiltonian.sector_basis", None),
    (oracle, "sector_basis", "hamiltonian.sector_basis", None),
    (oracle, "sector_matrix", "oracle.sector_matrix", None),
    (oracle, "sector_spectrum", "oracle.sector_spectrum", None),
    (oracle, "compare", "oracle.compare", None),
)
COUNTED = (
    (constraints, "lambda_fn", "constraints.lambda_fn"),
    (bethe, "lambda_fn", "constraints.lambda_fn"),
    (constraints, "s_matrix", "constraints.s_matrix"),
    (bethe, "s_matrix", "constraints.s_matrix"),
)


class Tracer:
    """Span and call-count recorder; ``run_job`` scopes the wrappers."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, job, info)
        self.counts = Counter()
        self.job = None
        self.missing = sorted({f"{owner.__name__}.{attr}"
                               for owner, attr, *_ in SPANNED + COUNTED
                               if not hasattr(owner, attr)})
        self._stack = []

    def _record(self, name, fn, info, args, kwargs):
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[sid] = (name, t0, t1, parent, self.job, None)
        if info is not None:
            spans[sid] = spans[sid][:5] + (info(args, kwargs, out),)
        return out

    def _spanned(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, info, args, kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as job job_id with every wrapper installed."""
        self.job = job_id
        saved = []
        try:
            for owner, attr, name, info in SPANNED:
                if hasattr(owner, attr):
                    orig = getattr(owner, attr)
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self._spanned(name, orig, info))
            for owner, attr, name in COUNTED:
                if hasattr(owner, attr):
                    orig = getattr(owner, attr)
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self._counted(name, orig))
            return self._record(JOB_SPAN, fn, None, args, {})
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self.job = None

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds); plus the
        annotations of every span, grouped by name."""
        child = defaultdict(float)
        for name, t0, t1, parent, job, info in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        infos = defaultdict(list)
        for sid, (name, t0, t1, parent, job, info) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[sid]
            if info is not None:
                infos[name].append((t1 - t0, info))
        return calls, incl, self_s, infos

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent, job, info) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "job": job}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")
