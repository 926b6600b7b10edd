"""Span recorder for the traced runs: wraps walshlab's functions from outside.

Nothing in walshlab changes.  `Tracer.install` replaces each target function
with a timing wrapper in its defining module and at every by-name import site
(`constructions.wht_fast`, `expsums.build_g`, `walshlab.build_f`, ...), and
the FieldCtx methods on the class.  A span records name, start, end and parent;
a layer's self time is its spans' time minus the time of their child spans.

The recorder keeps one span stack, so it assumes one thread; the workloads run
the CLI with its default --threads 1.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, layer name)
TARGETS = (
    ("gf2n", "FieldCtx.__init__", "gf2n.create_ctx"),
    ("gf2n", "FieldCtx.tables", "gf2n.tables"),
    ("gf2n", "FieldCtx.power_table", "gf2n.power_table"),
    ("gf2n", "FieldCtx.trace_table", "gf2n.trace_table"),
    ("kernels", "exp_table", "kernels.exp_table"),
    ("kernels", "wht_inplace", "kernels.wht_inplace"),
    ("kernels", "mobius_inplace", "kernels.mobius_inplace"),
    ("kernels", "masked_parity", "kernels.masked_parity"),
    ("walsh", "wht_fast", "walsh.wht_fast"),
    ("walsh", "distribution", "walsh.distribution"),
    ("walsh", "classify", "walsh.classify"),
    ("walsh", "nonlinearity", "walsh.nonlinearity"),
    ("boolfun", "algebraic_degree", "boolfun.algebraic_degree"),
    ("constructions", "build_f", "constructions.build"),
    ("constructions", "build_g", "constructions.build"),
    ("constructions", "case_report", "constructions.case_report"),
    ("constructions", "verify_theorem", "constructions.verify_theorem"),
    ("expsums", "q_identity_check", "expsums.q_identity_check"),
    ("expsums", "theorem35_check", "expsums.theorem35_check"),
    ("kloosterman", "scan", "kloosterman.scan"),
    ("kloosterman", "subfield_k_map", "kloosterman.subfield_k_map"),
    ("kloosterman", "kloosterman_lifted_direct", "kloosterman.lifted_direct"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_spectrum", "cli.report"),
    ("cli", "_one_spectrum_report", "cli.spectrum_report"),
    ("cli", "cmd_verify", "cli.report"),
    ("cli", "_run_suite", "cli.verify"),  # named per suite: cli.verify.<suite>
)

# every timed layer, in report order; bench.check is the benchmark's own check
LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS if name != "cli.verify")) + (
    "bench.check",)
SUITES = ("thm32", "thm34", "thm35", "lemma23", "lemma31", "fkl", "recursion", "counts",
          "qsets")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.gated_checks: dict[str, int] = defaultdict(int)
        self.scan_ms: set[int] = set()
        self._table_ids: set[int] = set()
        self.table_bytes = 0
        self.wht_bytes = 0

    # -- recording

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name: str, after=None, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters taken at the same boundaries (computed from array sizes)

    def _after_tables(self, args, result):
        for arr in result:
            if id(arr) not in self._table_ids:
                self._table_ids.add(id(arr))
                self.table_bytes += arr.nbytes

    def _after_wht(self, args, result):
        v = args[0]
        # one read and one write of every element per butterfly level
        self.wht_bytes += 2 * v.nbytes * (v.shape[0].bit_length() - 1)

    def _after_suite(self, args, result):
        self.gated_checks[args[0]] += sum(1 for r in result if not r["info"])

    def _after_scan(self, args, result):
        self.scan_ms.add(int(args[0]))

    # -- installation

    def install(self) -> None:
        """Wrap every target in the loaded walshlab modules and all their aliases."""
        hooks = {
            "gf2n.tables": dict(after=self._after_tables),
            "kernels.wht_inplace": dict(after=self._after_wht),
            "kloosterman.scan": dict(after=self._after_scan),
            "cli.verify": dict(after=self._after_suite,
                               name_of=lambda args: f"cli.verify.{args[0]}"),
        }
        replaced = {}
        for mod_name, attr, name in TARGETS:
            mod = sys.modules[f"walshlab.{mod_name}"]
            owner = mod
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(mod, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, **hooks.get(name, {}))
            setattr(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        # by-name import sites: `from .walsh import wht_fast` and friends
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "walshlab" and not mod_name.startswith("walshlab."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    # -- summaries

    def summary(self, since: float) -> dict:
        """Per-layer self time and calls over every span, plus the top-level
        spans that started at or after `since` (the workload phase)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        toplevel = 0.0
        report_ms = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
            if parent < 0 and start >= since:
                toplevel += end - start
            if name == "cli.spectrum_report":
                report_ms.append(1000 * (end - start))
        return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls),
                "toplevel_s": toplevel, "report_ms": report_ms,
                "gated_checks": dict(self.gated_checks), "scan_distinct_m": len(self.scan_ms), "table_bytes": self.table_bytes,
                "wht_bytes": self.wht_bytes}
