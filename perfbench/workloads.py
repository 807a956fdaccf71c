"""The four benchmark workloads: inputs, operations and output checks.

Every workload draws its instances from a fixed pool, so that the expected
exact output of every operation the benchmark can run is recorded once, in
``golden/<workload>.json``, from the commit that defined the benchmark.  The
run seed picks which pool instances a run uses and the order of its
operations; the same seed gives the same inputs.

An operation returns ``(exit code, error class, output)``.  CLI operations
run ``troplectra.cli.main`` in-process and return its stdout; library
operations return the result object, which is rendered to text after the
timed region.  Expected ``TropError`` exits are part of the recorded output.

Functions are looked up on the ``troplectra`` package at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

TABLE_FORMATS = ("table", "csv", "json")


@dataclass
class Op:
    key: str
    call: Callable[[], tuple[int, str, object]]
    stratum: str = ""
    meta: dict = field(default_factory=dict)


@dataclass
class Corpus:
    ops: list[Op]
    warmup: list[Op]


def run_cli(tl, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tl.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    err_class = err.getvalue().partition("\n")[0].partition(":")[0] if code else ""
    return code, err_class, out.getvalue()


def run_lib(tl, name: str, *args) -> tuple[int, str, object]:
    try:
        return 0, "", getattr(tl, name)(*args)
    except tl.TropError as exc:
        return 1, type(exc).__name__, None


def spread_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """Shuffle each stratum and spread it evenly over the pass.

    A timed run usually stops part-way through a pass; spreading keeps the
    mix of that part the same as the mix of the whole pass.
    """
    strata: dict[str, list[Op]] = {}
    for op in ops:
        strata.setdefault(op.stratum, []).append(op)
    placed = []
    for group in strata.values():
        rng.shuffle(group)
        placed += [((j + rng.random()) / len(group), op) for j, op in enumerate(group)]
    placed.sort(key=lambda item: item[0])
    return [op for _, op in placed]


class Workload:
    name = ""
    # Pool definition, plus "pick": how many pool instances a run draws.
    params: dict = {}

    @classmethod
    def pool_params(cls) -> dict:
        """The parameters the recorded outputs depend on."""
        return {k: v for k, v in cls.params.items() if k != "pick"}

    def corpus(self, tl, seed: int, workdir: Path, root: Path, full: bool = False) -> Corpus:
        """The run's inputs: ``pick`` instances per size, or the whole pool."""
        rng = random.Random(f"{self.name}:{seed}")

        def pick(population=None) -> list[int]:
            population = list(range(self.params["pool"]) if population is None else population)
            if full:
                return population
            share = self.params["pick"] / self.params["pool"]
            return sorted(rng.sample(population, round(len(population) * share)))

        ops, warmup = self.build(tl, pick, workdir, root)
        return Corpus(ops if full else spread_order(ops, rng), warmup)

    def build(self, tl, pick, workdir: Path, root: Path) -> tuple[list[Op], list[Op]]:
        raise NotImplementedError

    def render(self, tl, op: Op, out) -> str:
        return out

    def exact(self, op: Op, text: str) -> str:
        """The part of a successful output that must match byte for byte."""
        return text

    def float_problems(self, op: Op, text: str) -> list[str]:
        """Float columns checked against an oracle within tolerances."""
        return []

    def accuracy(self) -> dict:
        return {}

    def _sizes(self) -> range:
        lo, hi = self.params["sizes"]
        return range(lo, hi + 1)


def cli_op(tl, argv: list[str], stratum: str, meta: dict | None = None) -> Op:
    key = " ".join(Path(a).name if "/" in a else a for a in argv)
    return Op(key, lambda: run_cli(tl, argv), stratum, meta or {})


class SpectralCli(Workload):
    """Every exact CLI subcommand on small TPD matrices and the golden files.

    Sizes 3..8 stay under the determinant size cap, so the exact core
    (determinant, adjugate columns, small stars) and CLI parsing and
    rendering do the work.  Formats cycle through table/csv/json.  A run
    draws most of the pool, so the heavy reports of one seed cost about
    what they cost for another.  Size 9 is left out: its reports take
    half a second each, which leaves too few operations in a run for a
    steady 90th percentile.
    """

    name = "spectral_cli"
    params = {"sizes": [3, 8], "pool": 24, "pick": 20}

    def build(self, tl, pick, workdir, root):
        ops = []
        for n in self._sizes():
            for i in pick():
                a = tl.random_tpd(n, i)
                mat = workdir / f"tpd{n}_{i}.mat"
                mat.write_text(tl.format_matrix(a))
                poly = workdir / f"tpd{n}_{i}.poly"
                poly.write_text(tl.format_poly(tl.charpoly(a)) + "\n")
                m = str(mat)
                argvs = [
                    ["check", m],
                    ["charpoly", m],
                    ["det", m],
                    ["eig", m, "--report"],
                    ["eigvec", m, "-k", "1"],
                    ["eigvec", m, "-k", str(1 + i % n), "--construct"],
                    ["poly-roots", str(poly)],
                ]
                ops += self._formatted(tl, argvs, i, n)
        data = root / "tests" / "data"
        for i, mat in enumerate(sorted(data.glob("*.mat"))):
            m = str(mat)
            argvs = [["check", m], ["charpoly", m], ["det", m], ["eig", m, "--report"],
                     ["eigvec", m, "-k", "1"]]
            ops += self._formatted(tl, argvs, i, "data")
        poly = str(data / "cubic.poly")
        ops += [cli_op(tl, ["poly-roots", poly, "--format", f], "data") for f in TABLE_FORMATS]
        warmup = [op for op in ops if op.key.split()[1].startswith(f"tpd{self._sizes()[0]}_")]
        return ops, warmup

    def _formatted(self, tl, argvs, i, group):
        out = []
        for c, argv in enumerate(argvs):
            fmts = ("table", "json") if argv[0] == "eigvec" else TABLE_FORMATS
            out.append(cli_op(tl, argv + ["--format", fmts[(i + c) % len(fmts)]],
                              f"{group} {c}"))
        return out


class LabFamilies(Workload):
    """``validate`` on lifted TPD families: the paper's validation experiment.

    Many tiny Jacobi calls next to exact predictions.  ``--vectors`` runs on
    the families whose diagonal exponents are pairwise distinct, which is
    ``compare_eigenvectors``'s documented precondition.  The output is JSON
    so that the float columns keep every digit for the oracle.
    """

    name = "lab_families"
    params = {"sizes": [4, 8], "pool": 32, "pick": 16, "t": "100,10000",
              "exponent_range": [0, 12]}

    def __init__(self):
        self.oracle = None  # built on first check, outside set-up

    def build(self, tl, pick, workdir, root):
        p = self.params
        ops = []
        for n in self._sizes():
            fams = [tl.lift_tpd(tl.random_tpd(n, i, exponent_range=tuple(p["exponent_range"])))
                    for i in range(p["pool"])]
            generic = [i for i, fam in enumerate(fams)
                       if len({fam.exponent(j, j) for j in range(n)}) == n]
            # Drawn separately, so every run has the pool's share of --vectors ops.
            chosen = pick(generic) + pick(i for i in range(p["pool"]) if i not in generic)
            for i in sorted(chosen):
                path = workdir / f"fam{n}_{i}.mono"
                path.write_text(fams[i].format() + "\n")
                meta = {"family": fams[i].format(), "instance": i}
                argv = ["validate", str(path), "--t", p["t"], "--format", "json"]
                ops.append(cli_op(tl, argv, f"{n}", meta))
                if i in generic:
                    ops.append(cli_op(tl, argv + ["--vectors"], f"{n} vectors", meta))
        warmup = [op for op in ops if op.key.split()[1].startswith(f"fam{self._sizes()[0]}_")]
        return ops, warmup

    def exact(self, op, text):
        rep = json.loads(text)
        rows = [
            [r["k"], r["t"], r["gamma"],
             None if r["coordinates"] is None
             else [[c["index"], c["prediction"], c["kind"]] for c in r["coordinates"]]]
            for r in rep["rows"]
        ]
        return json.dumps([rep["n"], rep["t_values"], rep["slack"], rows])

    def float_problems(self, op, text):
        if self.oracle is None:
            self.oracle = checks.FamilyOracle()
        return self.oracle.check_report(op.meta["family"], op.meta["instance"], text)

    def accuracy(self):
        return {} if self.oracle is None else self.oracle.accuracy()


class LabGram(Workload):
    """Gram-matrix pipeline and the inclusion bound, as library calls.

    ``jacobi_eigen`` at moderate n does most of the work here; the exact
    layers (tropicalize, classify, sort the diagonal) do the rest.  Six
    small inclusion-bound calls per Gram pair keep a 20 s run above 100
    operations, so the 90th percentile has ten samples beyond it.
    """

    name = "lab_gram"
    params = {"gram_sizes": [40, 60], "gersh_size": 20, "gersh_per_instance": 6,
              "pool": 32, "pick": 16, "t": 10.0}

    def build(self, tl, pick, workdir, root):
        p = self.params
        ops = []
        for i in pick():
            for n in p["gram_sizes"]:
                ops.append(Op(
                    f"gram_experiment n={n} seed={i}",
                    lambda n=n, i=i: run_lib(tl, "gram_experiment", n, i, p["t"]),
                    f"gram {n}", {"kind": "gram", "n": n, "seed": i, "t": p["t"]},
                ))
            for s in range(i, p["gersh_per_instance"] * p["pool"], p["pool"]):
                b = tl.random_gram_pd(p["gersh_size"], s)
                ops.append(Op(
                    f"gershgorin_pd_bound n={p['gersh_size']} seed={s}",
                    lambda b=b: run_lib(tl, "gershgorin_pd_bound", b),
                    "gersh", {"kind": "gersh", "n": p["gersh_size"], "seed": s},
                ))
        warmup = [
            Op("warmup", lambda: run_lib(tl, "gram_experiment", 8, 0, p["t"])),
            Op("warmup", lambda: run_lib(tl, "gershgorin_pd_bound", tl.random_gram_pd(8, 0))),
        ]
        return ops, warmup

    def render(self, tl, op, out):
        if op.meta["kind"] == "gram":
            return f"verdict {out.verdict.value}\n" + out.to_csv()
        return json.dumps({
            "gamma": None if math.isinf(out.gamma) else out.gamma,
            "weak": out.weak,
            "contained": out.contained,
            "balls": [list(b) for b in out.balls],
            "eigenvalues": list(out.eigenvalues),
        })

    def exact(self, op, text):
        # Gram gammas are float logs of BLAS dot products, so they are
        # checked within a tolerance rather than byte for byte.
        if op.meta["kind"] == "gram":
            lines = text.splitlines()
            rows = [ln.split(",") for ln in lines[2:]]
            return "\n".join([lines[0], lines[1]] + [f"{r[0]},{r[1]},{r[2][0]}" for r in rows])
        gb = json.loads(text)
        return json.dumps([gb["weak"], gb["contained"], len(gb["balls"]), len(gb["eigenvalues"])])

    def float_problems(self, op, text):
        if op.meta["kind"] == "gram":
            return checks.gram_problems(op.meta["n"], op.meta["seed"], op.meta["t"], text)
        return checks.gersh_problems(op.meta["n"], op.meta["seed"], text)


class StarScale(Workload):
    """``kleene_star`` and ``max_cycle_mean`` on contracted TPD matrices.

    Past the determinant size cap no minor-based route runs, so the O(n^4)
    cycle-mean and star-squaring path dominates.  Each matrix is a TPD
    matrix multiplied by the inverse of its largest diagonal entry, so every
    cycle mean is at most the unit and the star exists.  Sizes stop at 16
    so a 20 s run holds well over 100 operations for the 90th percentile.
    """

    name = "star_scale"
    params = {"sizes": [12, 16], "pool": 16, "pick": 3}

    def build(self, tl, pick, workdir, root):
        ops = []
        for n in self._sizes():
            for i in pick():
                a = tl.random_tpd(n, i)
                top = max(a[j, j].mag for j in range(n))
                c = tl.SScalar.pos(-top) * a
                for fn in ("kleene_star", "max_cycle_mean"):
                    ops.append(Op(f"{fn} n={n} seed={i}",
                                  lambda fn=fn, c=c: run_lib(tl, fn, c), f"{fn} {n}", {"fn": fn}))
        small = tl.SScalar.pos(-5) * tl.random_tpd(4, 0)
        warmup = [Op("warmup", lambda fn=fn: run_lib(tl, fn, small))
                  for fn in ("kleene_star", "max_cycle_mean")]
        return ops, warmup

    def render(self, tl, op, out):
        if op.meta["fn"] == "kleene_star":
            return tl.format_matrix(out)
        return "bot" if out.value is None else str(out.value)


WORKLOADS = {w.name: w for w in (SpectralCli, LabFamilies, LabGram, StarScale)}
