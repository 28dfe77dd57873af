"""In-memory spans and counters for the traced run, and the hooks that record them.

The traced run calls ``demchar.cli.main`` in this process with the layer
functions it reaches replaced by timing wrappers.  The wrappers live here, in
the benchmark, so the program itself carries no tracing code; every span is
taken at the boundary where one module calls into another.  Spans are kept in
memory and written out once, after the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


@dataclass
class Tracer:
    """Spans of one workload, plus named counts and peaks taken at the same boundaries."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    peaks: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.workload))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), n)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "spans": [asdict(s) for s in self.spans],
            "counts": self.counts,
            "peaks": self.peaks,
        }


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name; a span nested in one of its own name is not counted twice."""
    out: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the duration not covered by direct child spans."""
    child_total = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_total):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]


def _hooks(tracer: Tracer, mods) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every layer boundary the CLI crosses.

    Each function is wrapped where its caller looks it up: ``cli`` imports
    names from the library modules, and the library modules call each other
    through their own globals.  A boundary the program no longer has is
    skipped, and its metrics read zero.
    """
    cli, charring, demazure, kernel, theorem, weyl = mods

    def on_group(g):
        tracer.peak("weyl.order", g.order)

    def on_interval(ws):
        tracer.count("weyl.interval_pairs", len(ws))

    def on_reports(reports):
        tracer.count("theorem.checks", len(reports))
        tracer.count("theorem.failed_checks", sum(1 for r in reports if not r.passed))

    def on_chars(chars):
        for v in chars if isinstance(chars, list) else [chars]:
            tracer.count("demazure.terms_out", len(v.terms))
            tracer.peak("demazure.peak_support", len(v.terms))

    boundaries = [
        ([cli], "build_datum", "rootsys.build_datum", None),
        ([cli], "generate", "weyl.generate", on_group),
        ([weyl], "_bruhat_table", "weyl.bruhat_table", None),
        ([theorem], "lower_interval", "weyl.lower_interval", on_interval),
        ([cli], "sweep_verify_theorem", "theorem.sweep", on_reports),
        ([theorem], "starred_top_characters", "theorem.starred_top", None),
        ([theorem, kernel], "all_demazure_images", "demazure.image_table", on_chars),
        ([demazure], "demazure_word", "demazure.word", on_chars),
        ([cli], "kernel_basis_element", "kernel.basis", None),
        ([cli, kernel], "in_kernel", "kernel.in_kernel", None),
        ([cli], "verify_characterization", "kernel.characterization", None),
        ([charring.CharElement], "to_json_dict", "charring.to_json", None),
        ([theorem.VerificationReport], "to_json_dict", "theorem.report_json", None),
        ([cli], "_dump_json", "cli.dumps", None),
    ]

    def timed(fn, name, after):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def rounds_of(fn):
        # the CLI asks for coefficients only; ask for the round count too
        def wrapper(g, v, with_stats=False):
            with tracer.span("kernel.decompose"):
                coefficients, rounds = fn(g, v, with_stats=True)
            tracer.count("kernel.decompose_rounds", rounds)
            return (coefficients, rounds) if with_stats else coefficients

        return wrapper

    hooks = []
    for owners, attr, name, after in boundaries:
        for owner in owners:
            if attr in vars(owner):
                hooks.append((owner, attr, timed(vars(owner)[attr], name, after)))
    if "decompose" in vars(cli):
        hooks.append((cli, "decompose", rounds_of(cli.decompose)))
    return hooks


@contextmanager
def installed(tracer: Tracer, mods):
    """Replace the layer functions with traced wrappers; restore them on exit."""
    hooks = _hooks(tracer, mods)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in hooks]
    try:
        for owner, attr, wrapper in hooks:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
