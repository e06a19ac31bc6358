"""Per-layer timing from outside the simulator.

`installed(trace)` replaces each layer entry point below with a
`perf_counter` span that records self time (its duration minus the time of
the spans it encloses), a call count and, where the layer does countable
work, a counter read from its arguments or return value.  Spans are kept in
memory in a `LayerTrace`.  Leaving the context restores every original
attribute, so untraced runs execute the program unmodified.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


def _count(key, amount):
    def counter(counts, args, out):
        counts[key] += amount(args, out)
    return counter


def targets():
    """(owner, attribute, span name, counter or None) for every shim."""
    from dbemem import engine, explore, membank, oracle, predwindow, sched, shell
    eng = engine.Engine
    frame_mb = _count("oracle.frame_mb", lambda a, out: out.nbytes / 1e6)
    return [
        (eng, "__init__", "engine.init", None),
        (eng, "run", "engine.loop", None),
        (sched.Scheduler, "slot_plan", "sched.slot_plan",
         _count("sched.accesses_planned", lambda a, out: len(out.writes)
                + len(out.display_reads) + len(out.fetches))),
        (sched.Scheduler, "display_words_in", "sched.display_words_in", None),
        (eng, "_serve_window", "engine.serve_window",
         _count("engine.pixels_served", lambda a, out: out[0])),
        (eng, "_advance_window", "engine.advance_window", None),
        (predwindow.ReconBufferState, "admit_run", "predwindow.admit_run",
         _count("predwindow.admitted_px", lambda a, out: out)),
        (predwindow.ReconBufferState, "slide", "predwindow.slide", None),
        (membank.SramBankModel, "request_access", "membank.request_access",
         _count("membank.grants", lambda a, out: bool(out))),
        (membank.SramBankModel, "commit_cycle", "membank.commit_cycle",
         _count("membank.commits", lambda a, out: out is not None)),
        (eng, "_commit_slot", "engine.commit_slot", None),
        (eng, "_check_display_word", "engine.check_display", None),
        (eng, "_drain_bank_violations", "engine.drain", None),
        (oracle.GoldenOracle, "golden_frame", "oracle.golden_frame", frame_mb),
        # the engine calls its own module-level reference
        (engine, "ycocg_frame", "oracle.ycocg_frame", frame_mb),
        (shell, "build_report", "shell.build_report", None),
        (shell, "emit_trace", "shell.emit_trace",
         _count("shell.trace_rows", lambda a, out: len(a[0].trace_rows)
                + len(a[0].violation_rows))),
        (shell, "parse_trace", "shell.parse_trace", None),
        (explore, "minimal_resident_set", "explore.minimal_resident_set", None),
    ]


class LayerTrace:
    """Self seconds, calls and work counters per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # time covered by child spans, one entry per open span

    def wrap(self, name, fn, counter):
        open_spans, self_s, calls = self._open, self.self_s, self.calls
        counts, clock = self.counts, time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if counter is not None:
                counter(counts, args, out)
            return out

        return span


@contextmanager
def installed(trace: LayerTrace):
    saved = []
    try:
        for owner, attr, name, counter in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, trace.wrap(name, original, counter))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
