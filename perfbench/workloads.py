"""The three workloads, run in-process through ramcat's public functions.

Each workload is built in `__init__` (the set-up the benchmark times as
`setup_s`) and exposes `instances`: (name, verdict-bearing, call, judge)
tuples.  `run_pass` makes and times the calls -- the timed region -- and
`judge_pass` afterwards hands each result to its judge, which fills an
`Outcome` from the oracle's known answers.  Library functions are always
looked up on their module at call time, so the tracer's patches apply.

  scan       tiny hom-sets; the coloring scan, budgets and the process pool
             do the work.  Certificates are written at jobs=1 and replayed
             from their text at jobs=2.
  construct  the theorem pipelines; large hom-sets, cheap sampled scans.
             Certificates are written and parsed, not replayed.
  laws       category-law, functor-law and frank-lift sweeps; no engine work
             apart from the command-line leg.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle as O

PACKAGE = "ramcat"
SUBMODULES = ("core", "engine", "constructions", "certificates", "cli",
              "categories")
SAMPLES = 10_000
REPLAY_JOBS = 2          # the benchmark machine's core count


def load_library(src: Path) -> SimpleNamespace:
    """Import the package afresh from `src`, dropping any earlier import."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module(PACKAGE)
    return SimpleNamespace(name=PACKAGE, **{
        sub: importlib.import_module(f"{PACKAGE}.{sub}") for sub in SUBMODULES})


def run_pass(instances) -> list[tuple]:
    """Call every instance in order, timing each call."""
    raw = []
    for name, bearing, call, judge in instances:
        t0 = perf_counter()
        try:
            value, err = call(), None
        except Exception as exc:   # judged as a failed instance
            value, err = None, exc
        raw.append((name, bearing, value, err, judge, perf_counter() - t0))
    return raw


def judge_pass(raw) -> list[O.Outcome]:
    outcomes = []
    for name, bearing, value, err, judge, _ in raw:
        out = O.Outcome(name, verdict_bearing=bearing)
        try:
            judge(out, value, err)
        except Exception as exc:   # a malformed result is a failed instance
            out.fail(f"judging raised {type(exc).__name__}: {exc}")
        outcomes.append(out)
    return outcomes


def _no_error(out: O.Outcome, err) -> bool:
    if err is not None:
        out.fail(f"raised {type(err).__name__}: {err}")
    return err is None


def _cli(lib, argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = lib.cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _cli_judge(lib, expect: int, cert: Path, written: bool):
    def judge(out, value, err):
        if not _no_error(out, err):
            return
        code, _, stderr = value
        if code != expect:
            out.fail(f"exit {code}, expected {expect}: {stderr.strip()}")
        if cert.exists() != written:
            out.fail(f"certificate written: {cert.exists()}, "
                     f"expected {written}")
        elif written:
            lib.certificates.load_certificate(cert)
            cert.unlink()
    return judge


class Scan:
    def __init__(self, lib, seed: int, tmp: Path):
        self.lib, self.seed = lib, seed
        cats, core, eng = lib.categories, lib.core, lib.engine
        d_r = cats.subset_boundary()
        dd = core.compose_word([d_r, d_r])
        p_cases = (
            # (name, (a, b, c), r, expect pass); (2,3,7) has 2**21 colorings,
            # over the default budget, so its budget is raised to decide it
            ("dR,dR (2,3,7) r=2", (2, 3, 7), 2, 7 >= O.R33),
            ("dR,dR (2,3,6) r=2", (2, 3, 6), 2, 6 >= O.R33),
            ("dR,dR (2,3,5) r=2", (2, 3, 5), 2, 5 >= O.R33),
            ("dR,dR (2,4,17) r=2", (2, 4, 17), 2, 17 >= O.R44),
            ("dR,dR (2,3,16) r=3", (2, 3, 16), 3, 16 >= O.R333),
        )
        self.instances = []
        for name, abc, r, expect in p_cases:
            self.instances += self._p_steps(name, dd, abc, r, expect)
        rcat = cats.subset_category()
        self.instances.append((
            "ramsey_degree R (2,3) r=2 pool 0..7", True,
            lambda: lib.engine.ramsey_degree(rcat, 2, 3, 2, range(0, 8),
                                             seed=seed),
            self._degree_judge))
        trunc = core.compose_word([cats.tree_truncation()])
        star100 = cats.star(100)
        tight = eng.SearchBudget(max_hom_size=1000)
        self.instances.append((
            "trees (2,0,0)->(3,0,0,0)->star(100) max_hom_size=1000", False,
            lambda: lib.engine.check_p_witness(
                trunc, (2, 0, 0), (3, 0, 0, 0), star100, 2, budget=tight,
                seed=seed),
            self._refusal_judge))
        cert = tmp / "scan-cli.json"
        argv = ["verify", "p", "--category", "R", "--functor", "dR,dR",
                "--a", "2", "--b", "3", "--c", "5", "--r", "2",
                "--seed", str(seed), "--out", str(cert)]
        self.instances.append(("cli verify p (2,3,5)", False,
                               lambda: _cli(lib, argv),
                               _cli_judge(lib, 1, cert, True)))

    def _p_steps(self, name, fun, abc, r, expect_pass: bool) -> list[tuple]:
        """Check, write and parse at jobs=1; then, as a second instance timed
        on its own, replay the parsed text at jobs=2 and rewrite it.

        Both run in `auto` mode, at the default budget but for (2,3,7), whose
        2**21 colorings get a budget just large enough to scan them all; the
        certificate records the budget, so the replay uses it too.  The replay
        reads what the write left in `slot`.
        """
        lib, prf = self.lib, self.lib.engine.prf_color
        a, b, c = abc
        kw = {"seed": self.seed, "samples": SAMPLES}
        if abc == (2, 3, 7):
            kw["budget"] = lib.engine.SearchBudget(max_colorings=2 ** 21)
        slot: dict = {}

        def write():
            cert = lib.certificates
            res = lib.engine.check_p_witness(fun, a, b, c, r, jobs=1, **kw)
            doc = cert.p_certificate(fun, a, b, c, r, res, **kw)
            text = cert.dump_certificate(doc)
            slot.update(doc=doc, text=text,
                        parsed=cert.parse_certificate(text))
            return res

        def replay():
            cert = lib.certificates
            rep = cert.replay_verify(slot["parsed"], jobs=REPLAY_JOBS)
            again = cert.dump_certificate(
                cert.p_certificate(fun, a, b, c, r, rep.result, **kw))
            return rep, again

        def judge_write(out, res, err):
            if not _no_error(out, err):
                return
            O.judge(out, res, expect_pass,
                    lambda: O.recheck_p(fun, *abc, res, prf))
            pinned = O.SCAN_FAIL_INDEX.get(abc)
            if pinned is not None and (res.counterexample is None
                                       or res.counterexample.index != pinned):
                out.fail(f"first failing index moved from {pinned}")
            if slot["parsed"] != slot["doc"]:
                out.fail("parsed certificate differs from the written one")

        def judge_replay(out, value, err):
            if not _no_error(out, err):
                return
            rep, again = value
            if not rep.match:
                out.fail(f"replay gave {rep.verdict}, stored {rep.expected}")
            if again != slot["text"]:
                out.fail("jobs=2 replay certificate differs from jobs=1 bytes")

        return [(name, True, write, judge_write),
                (f"{name} replay", False, replay, judge_replay)]

    @staticmethod
    def _degree_judge(out, deg, err):
        if not _no_error(out, err):
            return
        if deg.degree != 1 or deg.witness != O.R33:
            out.fail(f"degree {deg.degree} at {deg.witness!r}, "
                     f"expected 1 at {O.R33}")
        elif deg.result is not None and deg.result.exhaustive:
            out.decided = True

    def _refusal_judge(self, out, value, err):
        if err is None:
            out.fail("expected a budget refusal, got a verdict")
        elif not isinstance(err, self.lib.engine.BudgetExceeded):
            out.fail(f"raised {type(err).__name__}: {err}")


class Construct:
    def __init__(self, lib, seed: int, tmp: Path):
        self.lib, self.seed = lib, seed
        cats, core = lib.categories, lib.core
        self.d_r = cats.subset_boundary()
        self.product_fun = cats.product_functor(cats.subset_boundary(),
                                                cats.subset_boundary())
        trunc = cats.tree_truncation()
        self.tree_fun = {s: core.compose_word([trunc] * cats.height(s))
                         for s in ((1, 0), (2, 0, 0))}
        self.hj_fun = core.compose_word([cats.WordBoundary(
            cats.WordCategory(1))])
        self.instances = [
            ("product (1:2,1:2) r=2 samples=20", True, self._product,
             self._judge("product", "p")),
            ("fp2p (2,3) r=2", True, self._fp2p, self._judge("fp2p", "p")),
            ("r-fp (1,2) r=2", True, self._r_fp, self._judge("r-fp", "fp")),
            ("fouche (1,0)/(2,0,0) r=2", True,
             lambda: self._fouche((1, 0), (2, 0, 0)),
             self._judge("fouche-small", "p")),
            ("fouche (2,0,0)/(3,0,0,0) r=2", True,
             lambda: self._fouche((2, 0, 0), (3, 0, 0, 0)),
             self._judge("fouche-big", "p")),
            ("hj k=1 l=1 r=2", True, self._hj, self._judge("hj", "p")),
        ]
        cert = tmp / "construct-cli.json"
        argv = ["construct", "--theorem", "fp2p", "--k", "2", "--l", "3",
                "--r", "2", "--seed", str(seed), "--out", str(cert)]
        self.instances.append(("cli construct fp2p (2,3)", False,
                               lambda: _cli(lib, argv),
                               _cli_judge(lib, 0, cert, True)))

    def _certify(self, fun, a, b, c, r, res, theorem, trace, samples=SAMPLES):
        cert = self.lib.certificates
        doc = cert.p_certificate(fun, a, b, c, r, res, theorem=theorem,
                                 trace=trace, seed=self.seed, samples=samples)
        text = cert.dump_certificate(doc)
        return doc, cert.parse_certificate(text)

    def _product(self):
        q, trace = self.lib.constructions.product_ramsey_numbers(
            (1, 1), (2, 2), 2)
        fun = self.product_fun
        a, b, c = (fun.dom.pack(v) for v in ((1, 1), (2, 2), q))
        res = self.lib.engine.check_p_witness(fun, a, b, c, 2, seed=self.seed,
                                              samples=20)
        return (q, res, fun, (a, b, c)) + self._certify(
            fun, a, b, c, 2, res, "product", trace.doc(), samples=20)

    def _fp2p(self):
        d_r, cons = self.d_r, self.lib.constructions
        c, trace = cons.fp_to_p_construct(d_r, 2, 3, 2, cons.r_fp_oracle(d_r),
                                          selection="max-rule")
        res = self.lib.engine.check_p_witness(d_r, 2, 3, c, 2, seed=self.seed,
                                              samples=SAMPLES)
        return (c, res, d_r, (2, 3, c)) + self._certify(
            d_r, 2, 3, c, 2, res, "fp2p", trace.doc())

    def _r_fp(self):
        d_r, eng, cert = self.d_r, self.lib.engine, self.lib.certificates
        inst = eng.FpInstance(a=1, b=2, s=eng.functor_image(d_r, 1, 2), r=2)
        c, f_prime, g_prime = self.lib.constructions.r_fp_witness(inst, d_r)
        res = eng.check_fp_witness(d_r, inst, c, f_prime, g_prime,
                                   seed=self.seed, samples=SAMPLES)
        doc = cert.fp_certificate(d_r, inst, c, f_prime, g_prime, res,
                                  theorem="r-fp", seed=self.seed,
                                  samples=SAMPLES)
        parsed = cert.parse_certificate(cert.dump_certificate(doc))
        return c, res, d_r, (inst, c, f_prime, g_prime), doc, parsed

    def _fouche(self, s_tree, t_tree):
        v, trace = self.lib.constructions.fouche_witness(s_tree, t_tree, 2)
        fun = self.tree_fun[s_tree]
        res = self.lib.engine.check_p_witness(fun, s_tree, t_tree, v, 2,
                                              seed=self.seed, samples=SAMPLES)
        return (v, res, fun, (s_tree, t_tree, v)) + self._certify(
            fun, s_tree, t_tree, v, 2, res, "fouche", trace.doc())

    def _hj(self):
        m, trace = self.lib.constructions.hj_witness(1, 1, 2)
        fun = self.hj_fun
        a, b, c = self.lib.categories.standard_window(1), ("L", 1), ("L", m)
        res = self.lib.engine.check_p_witness(fun, a, b, c, 2, seed=self.seed,
                                              samples=SAMPLES)
        return (m, res, fun, (a, b, c)) + self._certify(
            fun, a, b, c, 2, res, "hj", trace.doc())

    def _judge(self, key: str, kind: str):
        prf = self.lib.engine.prf_color

        def judge(out, value, err):
            if not _no_error(out, err):
                return
            witness, res, fun, args, doc, parsed = value
            if witness != O.PINNED_WITNESS[key]:
                out.fail(f"witness {witness!r}, pinned "
                         f"{O.PINNED_WITNESS[key]!r}")
            if kind == "p":
                recheck = lambda: O.recheck_p(fun, *args, res, prf)
            else:
                recheck = lambda: O.recheck_fp(fun, *args, res, prf)
            # the constructions are theorems: their witnesses must pass
            O.judge(out, res, True, recheck)
            if parsed != doc:
                out.fail("parsed certificate differs from the written one")
        return judge


class Laws:
    def __init__(self, lib, seed: int, tmp: Path):
        self.lib = lib
        cats = lib.categories
        d_r, rcat = cats.subset_boundary(), cats.subset_category()
        # (name, category, functor, objects, sources and targets of the
        # frank-lift sweep)
        r_objs = list(range(0, 7))
        families = [("R", rcat, d_r, r_objs, r_objs)]
        for orientation in cats.ORIENTATIONS:
            cat = cats.StepCategory(orientation)
            objs = [(k, t) for k in (1, 2, 3) for t in (0, 1)
                    if cat.is_object((k, t))]
            objs += [(l, 2) for l in range(1, 6)]
            families.append((f"P:{orientation}", cat, cats.StepBoundary(cat),
                             objs, objs))
        for k0 in (0, 1):
            cat = cats.word_category(k0)
            objs = list(cat.v_objects()) + [("L", l) for l in range(0, 4)]
            families.append((f"HJ:{k0}", cat, cats.WordBoundary(cat), objs,
                             objs))
        tcat = cats.tree_category()
        trees = []
        for t in tcat.iter_objects():
            if len(t) > 7:     # 197 trees; the 8-node cap takes ten times longer
                break
            trees.append(t)
        families.append(("trees<=7", tcat, cats.tree_truncation(tcat), trees,
                         [t for t in trees if len(t) <= 5]))
        rr = cats.ProductCategory((cats.subset_category(),
                                   cats.subset_category()))
        rr_objs = [rr.pack(v) for v in ((0, 0), (1, 1), (1, 2), (2, 2),
                                        (2, 3), (3, 3))]
        families.append(("RxR", rr, cats.ProductFunctor(
            (cats.subset_boundary(), cats.subset_boundary())), rr_objs,
            rr_objs))
        rp = cats.ProductCategory((cats.subset_category(), cats.StepCategory()))
        families.append(("RxP", rp, cats.ProductFunctor(
            (cats.subset_boundary(), cats.step_boundary())),
            [rp.pack(v) for v in ((1, (2, 1)), (2, (3, 2)), (2, (4, 2)),
                                  (3, (4, 2)))], []))
        self.instances = []
        for name, cat, fun, objs, lifts in families:
            cat_n, fun_n, frank_n = O.PINNED_LAWS[name]
            self.instances.append((
                f"{name} category laws", True,
                lambda cat=cat, objs=objs:
                    lib.core.check_category_laws(cat, objs),
                self._law_judge(cat_n)))
            self.instances.append((
                f"{name} functor laws", True,
                lambda fun=fun, objs=objs:
                    lib.core.check_functor_laws(fun, objs),
                self._law_judge(fun_n)))
            if lifts:
                self.instances.append((
                    f"{name} frank lifts", True,
                    lambda fun=fun, lifts=lifts: [
                        lib.core.check_frank_at(fun, a, fun.obj(b)).status
                        for a in lifts for b in lifts],
                    self._frank_judge(frank_n)))
        cert = tmp / "laws-cli.json"
        argv = ["verify", "p", "--category", "R", "--functor", "dR,dR",
                "--a", "2", "--b", "3", "--c", "7", "--r", "2",
                "--mode", "exhaustive", "--seed", str(seed),
                "--out", str(cert)]
        self.instances.append(("cli verify p (2,3,7) exhaustive, default "
                               "budget", False, lambda: _cli(lib, argv),
                               _cli_judge(lib, 2, cert, False)))

    @staticmethod
    def _law_judge(pinned: int):
        def judge(out, rep, err):
            if not _no_error(out, err):
                return
            if not rep.ok:
                out.fail(f"law violations: {rep.violations[:3]}")
            elif rep.checked != pinned:
                out.fail(f"checked {rep.checked}, pinned {pinned}")
            else:
                out.decided = True
        return judge

    @staticmethod
    def _frank_judge(pinned: int):
        def judge(out, statuses, err):
            if not _no_error(out, err):
                return
            bad = [s for s in statuses if s != "pass"]
            if bad:
                out.fail(f"{len(bad)} frank lifts did not pass")
            elif len(statuses) != pinned:
                out.fail(f"{len(statuses)} lifts, pinned {pinned}")
            else:
                out.decided = True
        return judge


WORKLOADS = {"scan": Scan, "construct": Construct, "laws": Laws}
