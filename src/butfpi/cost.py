"""Work/span measurement of translated programs.

Work is the number of important steps in a run; span is the maximum causal
depth reached, where depth increments only when an important step fires
and is inherited through administrative steps.  Together they expose the
parallel structure the translation claims: array elements evaluate
independently (span stays flat as width grows), while nested applications
chain (span equals work).

The scaling families generate programs at increasing size and check the
measured shapes: exact linearity of work through first differences and
exact span constancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from butfpi.butf.syntax import App, Array, Builtin, Expr, Lam, Num, Tup, Var
from butfpi.epi.engine import normalize, run
from butfpi.schedules import run_schedules
from butfpi.translate import TranslationOptions, translate


@dataclass
class CostReport:
    work: int
    span: int
    admin_steps: int
    status: str
    per_run: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "work": self.work,
            "span": self.span,
            "admin_steps": self.admin_steps,
            "status": self.status,
            "per_run": dict(sorted(self.per_run.items())),
        }


def measure(e: Expr, seeds: int = 0, budget: int = 500_000,
            opts: TranslationOptions | None = None) -> CostReport:
    """Work and span of ``e``'s translation, aggregated over runs.

    Always includes one deterministic run; ``seeds`` adds seeded random
    schedules.  The translation is normalized once and every schedule runs
    on it (``schedules.run_schedules``, which may run the seeded ones in
    forked processes when the priority run shows it pays; the report is the
    same either way).  The report carries the per-run numbers and their
    maxima.
    """
    opts = opts or TranslationOptions()
    report = CostReport(0, 0, 0, "ok")
    config = normalize(translate(e, "o", opts))

    def one(policy: str, seed: int) -> dict:
        trace = run(config, policy=policy, seed=seed, budget=budget)
        return {"work": trace.work, "span": trace.span,
                "admin_steps": trace.admin_steps, "status": trace.status}

    for label, entry in run_schedules(one, seeds):
        report.per_run[label] = entry
        report.work = max(report.work, entry["work"])
        report.span = max(report.span, entry["span"])
        report.admin_steps = max(report.admin_steps, entry["admin_steps"])
        if entry["status"] != "terminated":
            report.status = entry["status"]
    return report


# ------------------------------------------------------ program families

def array_of_apps(n: int) -> Expr:
    """``[(\\x. x) 1, ..., (\\x. x) n]``: n independent unit applications."""
    ident = Lam("x", Var("x"))
    return Array(tuple(App(ident, Num(i + 1)) for i in range(n)))


def map_over_iota(n: int, body: Expr | None = None) -> Expr:
    """``map (f, iota n)`` with ``f`` defaulting to the identity."""
    fn = body if body is not None else Lam("x", Var("x"))
    return App(Builtin("map"), Tup((fn, App(Builtin("iota"), Num(n)))))


def map_square_over_iota(n: int) -> Expr:
    """``map ((\\x. x * x + 1), iota n)``: a mapped function that does work."""
    def arith(op: str, left: Expr, right: Expr) -> Expr:
        return App(Builtin(op), Tup((left, right)))

    x = Var("x")
    return map_over_iota(n, Lam("x", arith("add", arith("mul", x, x), Num(1))))


def nested_apps(k: int) -> Expr:
    """``(\\x1. (\\x2. ... (\\xk. xk) x2 ...) x1) 0``: a chain of k applications."""
    fn: Expr = Lam(f"x{k}", Var(f"x{k}"))
    for i in range(k - 1, 0, -1):
        fn = Lam(f"x{i}", App(fn, Var(f"x{i}")))
    return App(fn, Num(0))


FAMILIES = {
    "array-of-apps": array_of_apps,
    "map-over-iota": map_over_iota,
    "map-square-over-iota": map_square_over_iota,
    "nested-apps": nested_apps,
}

# predicted shapes per family: work through first differences, span flat,
# or the exact chain identity work == span == n
PREDICTED = {
    "array-of-apps": {"work": "linear", "span": "constant"},
    "map-over-iota": {"work": "affine", "span": "constant"},
    "map-square-over-iota": {"work": "affine", "span": "constant"},
    "nested-apps": {"work": "equals-n", "span": "equals-n"},
}
MIN_SIZES = 3  # fewest rows a shape check can judge


@dataclass
class ScalingRow:
    n: int
    work: int
    span: int
    admin_steps: int
    status: str


@dataclass
class ScalingTable:
    family: str
    rows: list[ScalingRow] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)

    @property
    def predicted(self) -> dict:
        return PREDICTED[self.family]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "predicted": self.predicted,
            "rows": [
                {"n": r.n, "work": r.work, "span": r.span,
                 "admin_steps": r.admin_steps, "status": r.status}
                for r in self.rows
            ],
            "dropped": list(self.dropped),
        }

    def to_csv(self) -> str:
        lines = ["family,n,seed,work,span,admin_steps"]
        for r in self.rows:
            lines.append(f"{self.family},{r.n},priority,{r.work},{r.span},{r.admin_steps}")
        return "\n".join(lines) + "\n"


def scaling_experiment(family: str, sizes: list[int], seeds: int = 0,
                       budget: int = 500_000) -> ScalingTable:
    """Measure ``family`` at each size, dropping the sizes that do not finish.

    Sizes start at 1: below that a family builds no program of its size
    (``nested_apps(0)`` is one application, ``array_of_apps(0)`` none).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick from {sorted(FAMILIES)}")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be strictly increasing")
    if sizes[0] < 1:
        raise ValueError("sizes must be at least 1")
    table = ScalingTable(family)
    for n in sizes:
        try:
            report = measure(FAMILIES[family](n), seeds=seeds, budget=budget)
        except RecursionError:  # too deep for the interpreter's stack
            table.dropped.append(n)
            continue
        if report.status != "ok":
            table.dropped.append(n)
            continue
        table.rows.append(ScalingRow(n, report.work, report.span,
                                     report.admin_steps, report.status))
    return table


@dataclass
class FitVerdict:
    family: str
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "passed": self.passed,
            "checks": [{"name": n, "passed": ok, "detail": d}
                       for n, ok, d in self.checks],
        }


def fit_check(table: ScalingTable) -> FitVerdict:
    """Check a table against its family's predicted shapes.

    Work linearity is exact first differences; span constancy is exact too.
    """
    if len(table.rows) < MIN_SIZES:
        raise ValueError(f"need at least {MIN_SIZES} sizes for a shape check")
    verdict = FitVerdict(table.family)
    predicted = table.predicted
    ns = [r.n for r in table.rows]
    works = [r.work for r in table.rows]
    spans = [r.span for r in table.rows]

    if predicted["work"] in ("linear", "affine"):
        slopes = {(works[i + 1] - works[i]) / (ns[i + 1] - ns[i])
                  for i in range(len(ns) - 1)}
        ok = len(slopes) == 1
        if ok and predicted["work"] == "linear":
            slope = slopes.pop()
            ok = all(w == slope * n for n, w in zip(ns, works))
            detail = f"work = {slope:g} * n" if ok else f"work {works} not proportional to n"
        else:
            detail = (f"constant slope {slopes}" if ok
                      else f"work differences not constant: {works} over {ns}")
        verdict.checks.append((f"work-{predicted['work']}", ok, detail))
    elif predicted["work"] == "equals-n":
        ok = works == ns
        verdict.checks.append(("work-equals-n", ok, f"work {works} vs n {ns}"))

    if predicted["span"] == "constant":
        ok = max(spans) == min(spans)
        verdict.checks.append(("span-constant", ok, f"span {spans}"))
    elif predicted["span"] == "equals-n":
        ok = spans == ns
        verdict.checks.append(("span-equals-n", ok, f"span {spans} vs n {ns}"))

    return verdict
