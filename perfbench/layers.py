"""Spans and counters recorded around calls into each preproj layer.

Nothing here lives inside the package.  :meth:`Tracer.install` replaces a
function by a recording wrapper in every loaded ``preproj`` module that
holds it, so ``flags.restrict`` and ``module.restrict`` are both caught,
and :meth:`Tracer.uninstall` puts the originals back.

A span is one call: name, start, end, parent span and op id.  Self time
is a span's duration minus the time its child spans cover; it is summed
per name as spans close.  Spans are kept in memory and written out when
the benchmark ends.  The three hottest layers (``restrict``, ``solve``
and ``rref``, about a million calls a pass on dirsum-split) are summed
but not stored one by one, so the trace stays a few megabytes.
"""

import json
import time
from collections import Counter, defaultdict

# (span name, defining module, function name)
SPANS = (
    ("flags.fingerprint", "flags", "fingerprint"),
    ("flags.count_fp", "flags", "count_flags_fp"),
    ("flags.split", "flags", "count_flags_by_splitting"),
    ("flags.split", "flags", "split_chi_sum"),
    ("verify.stratify", "verify", "stratify_proj_ext"),
    ("homext.ext_presentation", "homext", "ext_presentation"),
    ("homext.middle_term", "homext", "middle_term"),
    ("linalg.interpolate", "linalg", "interpolate"),
    ("module.reduce_mod_p", "module", "reduce_mod_p"),
    ("module.restrict", "module", "restrict"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.rref", "linalg", "rref"),
)
UNSTORED = frozenset(("module.restrict", "linalg.solve", "linalg.rref"))
# Spans whose counting rows form one sampled prime range.
SAMPLERS = frozenset(("flags.fingerprint", "verify.stratify"))


def _window_shift(samples, window):
    """How many sampled primes the accepted fit window slid past."""
    primes = [p for p, _ in samples]
    return primes.index(window[0]) if window else 0


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, prime]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [start, child time, stored index]
        self._count_depth = 0
        self._op = None
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _open(self, name, prime=None):
        parent = self._stack[-1][2] if self._stack else -1
        index = parent
        if name not in UNSTORED:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self._op, prime])
        frame = [0.0, 0.0, index]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if name not in UNSTORED:
            span = self.spans[frame[2]]
            span[1], span[2] = frame[0], end

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) inside a root span named ``op``."""
        self._op = op_id
        frame = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close("op", frame)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame)

        return wrapper

    def _after(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result)
            return result

        return wrapper

    def _count_seam(self, real):
        """flags._count: every call is a recursion node; memo hits are
        calls that stored nothing; top-level calls are spans tagged with
        the prime they count at."""
        counts = self.counts

        def _count(m, steps, memo):
            counts["flags.count.calls"] += 1
            if not steps:
                return real(m, steps, memo)
            before = len(memo)
            if self._count_depth:
                self._count_depth += 1
                try:
                    n = real(m, steps, memo)
                finally:
                    self._count_depth -= 1
            else:
                frame = self._open("flags.count", prime=m.field.p)
                self._count_depth = 1
                try:
                    n = real(m, steps, memo)
                finally:
                    self._count_depth = 0
                    self._close("flags.count", frame)
            if len(memo) == before:
                counts["flags.count.memo_hits"] += 1
            else:
                counts["flags.memo_entries"] += 1
            return n

        return _count

    def _subspaces(self, real):
        counts = self.counts

        def enumerate_subspaces(field, ambient, dim):
            for basis in real(field, ambient, dim):
                counts["flags.subspaces"] += 1
                yield basis

        return enumerate_subspaces

    def _counted(self, counter, real):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return real(*args, **kwargs)

        return wrapper

    def _bad_primes(self, real, bad_prime):
        counts = self.counts

        def reduce_mod_p(m, p):
            try:
                return real(m, p)
            except bad_prime:
                counts["module.bad_primes"] += 1
                raise

        return reduce_mod_p

    def _fingerprint_slides(self, fp):
        shifts = [_window_shift(p.samples, p.window) for p in fp.profiles]
        self.counts["flags.window_slides"] += max(shifts, default=0)

    def _stratify_slides(self, strata):
        if strata:
            self.counts["flags.window_slides"] += _window_shift(
                strata[0].sizes, strata[0].window
            )

    def install(self, P):
        """Wrap every traced function in every preproj namespace."""
        wrapped = {}
        for name, module, attr in SPANS:
            real = getattr(getattr(P, module), attr)
            fn = real
            if attr == "reduce_mod_p":
                fn = self._bad_primes(fn, P.module.BadPrime)
            fn = self._span(name, fn)
            if attr == "fingerprint":
                fn = self._after(fn, self._fingerprint_slides)
            elif attr == "stratify_proj_ext":
                fn = self._after(fn, self._stratify_slides)
            wrapped[real] = fn
        flags = P.flags
        wrapped[flags._count] = self._count_seam(flags._count)
        wrapped[flags.enumerate_subspaces] = self._subspaces(
            flags.enumerate_subspaces
        )
        wrapped[P.verify._class_derivation] = self._counted(
            "verify.classes", P.verify._class_derivation
        )
        for mod in vars(P).values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        matrix = P.linalg.Matrix
        post_init = matrix.__post_init__
        self._restore.append((matrix, "__post_init__", post_init))
        matrix.__post_init__ = self._counted("linalg.matrix_new", post_init)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def count_rows(self):
        """Counting time per (sampler span, prime), from the stored spans."""
        spans = self.spans
        rows = defaultdict(lambda: defaultdict(float))
        for span in spans:
            if span[0] != "flags.count":
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in SAMPLERS:
                parent = spans[parent][3]
            if parent >= 0:
                rows[parent][span[5]] += span[2] - span[1]
        return rows

    def layer_metrics(self):
        """The per-layer metrics of everything recorded so far."""
        s, c, n = self.self_s, self.calls, self.counts
        rows = self.count_rows()
        total = sum(t for row in rows.values() for t in row.values())
        top = sum(
            sum(t for _, t in sorted(row.items())[-2:]) for row in rows.values()
        )
        lookups = n["flags.count.memo_hits"] + n["flags.memo_entries"]
        return {
            "flags.subspaces": (n["flags.subspaces"], "count"),
            "flags.count.calls": (n["flags.count.calls"], "count"),
            "flags.count.memo_hit_ratio": (
                n["flags.count.memo_hits"] / lookups if lookups else 0.0,
                "ratio",
            ),
            "flags.memo_entries": (n["flags.memo_entries"], "count"),
            "flags.count.self_s": (s["flags.count"], "s"),
            "flags.top_prime_share": (top / total if total else 0.0, "ratio"),
            "flags.primes_sampled": (sum(len(r) for r in rows.values()), "count"),
            "flags.max_prime": (
                max((p for r in rows.values() for p in r), default=0),
                "prime",
            ),
            "flags.window_slides": (n["flags.window_slides"], "count"),
            "flags.fingerprint.calls": (c["flags.fingerprint"], "count"),
            "flags.fingerprint.self_s": (s["flags.fingerprint"], "s"),
            "flags.count_fp.calls": (c["flags.count_fp"], "count"),
            "flags.split.self_s": (s["flags.split"], "s"),
            "verify.stratify.self_s": (s["verify.stratify"], "s"),
            "verify.classes": (n["verify.classes"], "count"),
            "homext.ext_presentation.calls": (
                c["homext.ext_presentation"], "count"
            ),
            "homext.ext_presentation.self_s": (s["homext.ext_presentation"], "s"),
            "homext.middle_term.calls": (c["homext.middle_term"], "count"),
            "module.restrict.calls": (c["module.restrict"], "count"),
            "module.restrict.self_s": (s["module.restrict"], "s"),
            "module.reduce_mod_p.calls": (c["module.reduce_mod_p"], "count"),
            "module.bad_primes": (n["module.bad_primes"], "count"),
            "linalg.solve.calls": (c["linalg.solve"], "count"),
            "linalg.solve.self_s": (s["linalg.solve"], "s"),
            "linalg.rref.self_s": (s["linalg.rref"], "s"),
            "linalg.interpolate.calls": (c["linalg.interpolate"], "count"),
            "linalg.interpolate.self_s": (s["linalg.interpolate"], "s"),
            "linalg.matrix_new": (n["linalg.matrix_new"], "count"),
            "op.self_s": (s["op"], "s"),
        }

    def covered_s(self):
        """Sum of all self times, which is the time inside op spans."""
        return sum(self.self_s.values())

    def write(self, path, header):
        """Write the header and then one JSON line per stored span."""
        origin = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op, prime in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }
                if prime is not None:
                    record["prime"] = prime
                out.write(json.dumps(record) + "\n")
