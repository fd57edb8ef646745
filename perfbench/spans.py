"""In-memory call spans for the traced benchmark run.

Every call the benchmark makes into a public function of a sturmtrace
module goes through :meth:`Tracer.call`.  With tracing off that is a
plain call; with tracing on it records one span (name, start, end,
parent span, task id, failed) in a list that is written out when the
run ends.  The span name is ``<module>.<function>``, so the layer of a
span is the module it called into.  Spans inside the package are not
recorded here.
"""

import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TASK, FAILED = range(6)


class Tracer:
    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self.task = None
        self._stack = []

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.task, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def records(self):
        """Spans as dicts, start times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [{"name": r[NAME], "start": r[START] - t0, "end": r[END] - t0,
                 "parent": r[PARENT], "task": r[TASK], "failed": r[FAILED]}
                for r in self.spans]


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    The benchmark is single-threaded, so sibling spans never overlap and
    the covered time is the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for r in spans:
        if r[PARENT] is not None:
            covered[r[PARENT]] += r[END] - r[START]
    return [r[END] - r[START] - c for r, c in zip(spans, covered)]


def aggregate(spans):
    """Per-pass totals of self time and calls, keyed by span name and layer.

    Spans from set-up (task ``"setup"``) count once.  Spans from the
    timed loop carry the task id ``(task index, execution)``; for each
    task the median over its traced executions is taken, then summed
    over tasks, so the totals describe one pass over the task list.
    Spans of any other task (direct probes) are left out.
    """
    selfs = self_times(spans)
    setup, per_exec = {}, {}
    for r, st in zip(spans, selfs):
        task = r[TASK]
        if task == "setup":
            bucket = setup
        elif isinstance(task, tuple):
            bucket = per_exec.setdefault(task, {})
        else:
            continue
        for key in (r[NAME], layer_of(r[NAME])):
            t, n = bucket.get(key, (0.0, 0))
            bucket[key] = (t + st, n + 1)
    by_task = {}
    for (j, _r), bucket in sorted(per_exec.items()):
        by_task.setdefault(j, []).append(bucket)
    totals = dict(setup)
    for buckets in by_task.values():
        keys = set().union(*buckets)
        for key in keys:
            t = statistics.median(b.get(key, (0.0, 0))[0] for b in buckets)
            n = buckets[0].get(key, (0.0, 0))[1]
            t0, n0 = totals.get(key, (0.0, 0))
            totals[key] = (t0 + t, n0 + n)
    failed = {}
    for r in spans:
        if r[FAILED]:
            layer = layer_of(r[NAME])
            failed[layer] = failed.get(layer, 0) + 1
    return totals, failed
