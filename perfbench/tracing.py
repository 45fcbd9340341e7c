"""Spans around calls into foursq's layers, installed from outside the package.

`install` replaces public functions of the layer modules (and every alias a
sibling module imported by name) with wrappers that time each call, count it,
and subtract the time of nested wrapped calls to give self time.  Nothing in
the package changes; an untraced process never imports this module.

Census chunks that run in forked pool workers record into the worker's copy
of the tracer; each chunk writes its totals to `spill_dir`, and
`merge_spills` folds them back in the parent.
"""

import functools
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, public function, span name); find_pairs is a generator, so its
# span is the time spent producing each pair.
SPANS = [
    ("search", "spf_sieve", "search.sieve"),
    ("search", "find_pairs", "search.pairs"),
    ("search", "unit_square_roots", "search.unit_roots"),
    ("search", "search_triples", "search.search_triples"),
    ("certify", "isqrt", "certify.isqrt"),
    ("certify", "perfect_square_root", "certify.square_test"),
    ("certify", "verify_four", "certify.verify_four"),
    ("sequences", "pell_P", "sequences.pell_P"),
    ("sequences", "seq_A", "sequences.seq_A"),
    ("sequences", "seq_R", "sequences.seq_R"),
    ("sequences", "conic_point", "sequences.conic_point"),
    ("sequences", "sequence_values", "sequences.sequence_values"),
    ("sequences", "binet_exact", "sequences.binet_exact"),
    ("forms", "evaluate", "forms.evaluate"),
    ("family", "make_main", "family.make_main"),
    ("family", "make_companion", "family.make_companion"),
    ("family", "recurrence_r", "family.recurrence_r"),
    ("family", "regular_complete", "family.regular_complete"),
    ("family", "degenerate_family", "family.degenerate_family"),
    ("symbolic", "prove_identities", "symbolic.prove"),
    ("symbolic", "reduce", "symbolic.reduce"),
    # the candidate walk and the per-chunk entry point are private, but their
    # spans are what separates walk self time and driver self time
    ("search", "_census_chunk_py", "search.walk"),
]


def _count_roots(counts, args, result):
    counts["search.roots_total"] += len(result)


def _count_search(counts, args, result):
    counts["search.pairs_scanned"] += result.stats.pairs_scanned
    counts["search.candidates_tested"] += result.stats.candidates_tested
    counts["search.triples"] += len(result.triples)


def _count_isqrt(counts, args, result):
    counts["certify.isqrt_bits"] += args[0].bit_length()


def _count_square(counts, args, result):
    counts["certify.square_hits"] += result is not None


# span name -> counter fed with the call's arguments and result
COUNTERS = {
    "search.unit_roots": _count_roots,
    "search.search_triples": _count_search,
    "certify.isqrt": _count_isqrt,
    "certify.square_test": _count_square,
}


class Tracer:
    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spills = 0
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []  # child time accumulated by each open span

    def _close(self, name, start):
        duration = perf_counter() - start
        child = self.stack.pop()
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self.stack:
            self.stack[-1] += duration

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if count:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)

            def resumed():
                while True:
                    self.stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(items, StopIteration)
                    finally:
                        self._close(name, start)
                    if item is StopIteration:
                        return
                    yield item
            return resumed()
        return traced

    def wrap_chunk(self, fn):
        """Chunk entry point: a span in this process, a spill in a worker."""
        in_process = self.wrap("search.chunk", fn)

        @functools.wraps(fn)
        def traced(args):
            if os.getpid() == self.pid:
                return in_process(args)
            self.reset()  # drop the totals the fork copied from the parent
            try:
                return fn(args)
            finally:
                self.spill()
        return traced

    def spill(self):
        self.spills += 1
        path = self.spill_dir / f"{os.getpid()}-{self.spills}.json"
        path.write_text(json.dumps(self.totals()))

    def merge_spills(self):
        for path in sorted(self.spill_dir.glob("*.json")):
            part = json.loads(path.read_text())
            path.unlink()
            for field in ("calls", "total", "self_time", "counts"):
                mine = getattr(self, field)
                for key, value in part[field].items():
                    mine[key] += value

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_time": dict(self.self_time), "counts": dict(self.counts)}


def _replace(modules, original, wrapped):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions in every loaded foursq module."""
    import foursq.cli
    import foursq.search
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "foursq" or name.startswith("foursq.")]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    for module, func, name in SPANS:
        original = getattr(by_name[module], func)
        wrap = (tracer.wrap_generator if name == "search.pairs"
                else tracer.wrap)
        _replace(modules, original, wrap(name, original))
    search = foursq.search
    _replace(modules, search._chunk_worker,
             tracer.wrap_chunk(search._chunk_worker))
    if search._kernel is not None:
        search._kernel.census_chunk = tracer.wrap(
            "search.kernel", search._kernel.census_chunk)

    # with jobs > 1 the parent's chunk span is the pool's map over chunks
    pool_class = search.Pool

    def traced_pool(*args, **kwargs):
        pool = pool_class(*args, **kwargs)
        pool.map = tracer.wrap("search.chunk", pool.map)
        return pool
    search.Pool = traced_pool
    foursq.cli.main = tracer.wrap("cli.main", foursq.cli.main)
