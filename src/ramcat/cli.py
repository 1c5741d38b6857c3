"""Command-line front door.

Exit codes are the machine contract: 0 pass, 1 fail (or inconsistent
certificate), 2 budget refusal, 64 usage error.  Stdout is human-oriented;
certificates written via --out are the reproducible artifact.

Default caps come from SearchBudget and can be overridden per run with
--max-colorings/--max-hom-size or the environment variables
RAMCAT_MAX_COLORINGS and RAMCAT_MAX_HOM_SIZE; construct also takes
--max-color-bits and --max-pairs, and every theorem obeys all four.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable

from .categories.hjcat import WordBoundary, WordCategory, standard_window
from .categories.pcat import ORIENTATIONS, StepBoundary, StepCategory
from .categories.rcat import SubsetBoundary, subset_boundary, subset_category
from .categories.trees import height, tree_category, tree_truncation
from .core import Category, Functor, IdentityFunctor, compose_word
from .engine import (DEFAULT_SAMPLES, DEFAULT_SEED, BudgetExceeded, FpInstance,
                     SearchBudget, degree_upper_bound, functor_image,
                     ramsey_degree, require_colors)
from .certificates import (CertificateError, Claim, StaleCertificateError,
                           Trace, dump_certificate, load_certificate,
                           morph_unhex, replay_verify)
from .constructions import (ConstructionError, fouche_witness, fp_provider,
                            fp_to_p_construct, hj_provider, hj_witness,
                            p_pigeonhole_witness, product_ramsey_witness,
                            r_fp_oracle, r_fp_witness, subset_g_prime,
                            word_witness)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class CliError(Exception):
    """Bad flags or selectors; reported with usage text and exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want 64
        raise CliError(message)


# ---------------------------------------------------------------------------
# selectors


def category_handle(selector: str) -> tuple[Category, dict[str, Functor],
                                            Callable[[str], Any]]:
    """Resolve --category into (category, functor tokens, object parser)."""
    name, _, arg = selector.partition(":")
    if name in ("R", "trees") and arg:
        raise CliError(f"{name} takes no argument, got {selector!r}")
    if name == "R":
        cat = subset_category()
        return cat, {"dR": subset_boundary(cat)}, int
    if name == "P":
        orientation = arg or "definition"
        if orientation not in ORIENTATIONS:
            raise CliError(f"unknown step orientation {orientation!r}")
        cat = StepCategory(orientation)
        return cat, {"dP": StepBoundary(cat)}, _parse_step
    if name == "HJ":
        k0 = int(arg) if arg else 1
        cat = WordCategory(k0)
        return cat, {"dHJ": WordBoundary(cat)}, _parse_word_obj
    if name == "trees":
        cat = tree_category()
        return cat, {"dT": tree_truncation(cat)}, _parse_tree
    raise CliError(f"unknown category {selector!r}; pick R, P[:mirror], "
                   f"HJ[:k0] or trees")


def _parse_step(text: str) -> tuple[int, int]:
    k, _, tag = text.partition(":")
    if not tag:
        raise CliError(f"step objects read k:tag, got {text!r}")
    return (int(k), int(tag))


def _parse_word_obj(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "l":
        return ("L", int(rest))
    if kind == "v":
        return ("V", tuple(int(x) for x in rest.split(",")))
    raise CliError(f"word objects read l:<dim> or v:<letters>, got {text!r}")


def _parse_tree(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def functor_word(tokens: dict[str, Functor], text: str) -> list[Functor]:
    """The functors named by a comma-separated word of tokens, in order."""
    word = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in tokens:
            raise CliError(f"unknown functor token {tok!r}; "
                           f"available: {sorted(tokens)}")
        word.append(tokens[tok])
    return word


def budget_from(args) -> SearchBudget:
    """Caps from the flags, else from the environment, else the defaults;
    only construct has the color-bit and pair flags.  A negative cap is
    refused here, where every command reads its budget before building."""
    def cap(flag: int | None, var: str, default: int) -> int:
        return flag if flag is not None else int(os.environ.get(var, default))
    return SearchBudget(
        max_colorings=cap(args.max_colorings, "RAMCAT_MAX_COLORINGS",
                          SearchBudget.max_colorings),
        max_hom_size=cap(args.max_hom_size, "RAMCAT_MAX_HOM_SIZE",
                         SearchBudget.max_hom_size),
        max_color_bits=getattr(args, "max_color_bits",
                               SearchBudget.max_color_bits),
        max_pairs=getattr(args, "max_pairs", SearchBudget.max_pairs)
    ).require_nonnegative()


def _engine_kw(args) -> dict:
    return {"mode": args.mode, "budget": budget_from(args), "seed": args.seed,
            "samples": args.samples}        # no jobs: certificates omit it


def _report(res) -> str:
    mode = {"orbit": f"orbit({res.group})", "exhaustive": "exhaustive",
            "sampled": f"sampled(seed={res.seed})"}[res.mode]
    verdict = "pass" if res.ok else "FAIL"
    count = (f"colorings_checked={res.checked}" if res.nodes is None
             else f"nodes={res.nodes}")
    line = f"{verdict} [{mode}] cells={res.cells} arrows={res.arrows} {count}"
    if res.counterexample is not None:
        cex = res.counterexample
        shown = list(cex.cells) if cex.cells is not None else "(not inlined)"
        line += f"\ncounterexample: index={cex.index} colors={shown}"
    return line


def _settle(args, claim: Claim, shown: Any = None, trace: Trace | None = None,
            theorem: str | None = None) -> int:
    """Check, report and certify the claim; return the exit code."""
    run = _engine_kw(args)
    res = claim.check(jobs=args.jobs, **run)
    if shown is not None:
        print(f"constructed witness: {shown!r}")
    print(_report(res))
    if args.out:
        dump_certificate(claim.certificate(res, theorem, trace, **run),
                         args.out)
        print(f"certificate written to {args.out}")
    return EXIT_PASS if res.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    if args.kind == "p" and {args.s, args.f_prime, args.g_prime} != {None}:
        raise CliError("verify p takes no --s, --f-prime or --g-prime")
    if (args.f_prime is None) != (args.g_prime is None):
        raise CliError("verify fp takes --f-prime and --g-prime together")
    cat, tokens, parse = category_handle(args.category)
    fun = compose_word(functor_word(tokens, args.functor))
    a, b, c = parse(args.a), parse(args.b), parse(args.c)
    if args.kind == "p":
        return _settle(args, Claim(fun, a, b, c, args.r))
    s = (tuple(morph_unhex(x) for x in args.s.split(","))
         if args.s is not None else functor_image(fun, a, b, budget_from(args)))
    if args.f_prime is not None:
        f_prime, g_prime = morph_unhex(args.f_prime), morph_unhex(args.g_prime)
    elif isinstance(fun, SubsetBoundary):
        # canonical subset picks, with g' retargeted at the user's c
        _, f_prime, _ = r_fp_witness(FpInstance(a=a, b=b, s=s, r=args.r))
        g_prime = subset_g_prime(fun, b, c)
    else:
        raise CliError("verify fp needs --f-prime and --g-prime hexes "
                       "outside plain dR over R")
    return _settle(args, Claim(fun, a, b, c, args.r, (s, f_prime, g_prime)))


# Each theorem builds under the run's budget and returns its claim, the value
# to print and the trace; _settle checks and certifies it under its name.
Built = tuple[Claim, Any, Trace | None]


def _theorem_fp2p(args, budget: SearchBudget) -> Built:
    delta = subset_boundary()
    c, trace = fp_to_p_construct(delta, args.k, args.l, args.r,
                                 r_fp_oracle(delta), selection="max-rule",
                                 budget=budget)
    return Claim(delta, args.k, args.l, c, args.r), c, trace


def _theorem_r_fp(args, budget: SearchBudget) -> Built:
    delta = subset_boundary()
    s = functor_image(delta, args.k, args.l, budget)
    c, f_prime, g_prime = r_fp_witness(
        FpInstance(a=args.k, b=args.l, s=s, r=args.r), delta)
    claim = Claim(delta, args.k, args.l, c, args.r, (s, f_prime, g_prime))
    return claim, c, None


def _theorem_pigeonhole(args, budget: SearchBudget) -> Built:
    c = p_pigeonhole_witness(args.k1, args.l, args.r)
    delta = StepBoundary(StepCategory(args.orientation))
    return Claim(delta, (args.k1, 1), (args.l, 2), c, args.r), c, None


def _theorem_compose(args, budget: SearchBudget) -> Built:
    delta = subset_boundary()
    word = [delta] * args.length
    c, trace = word_witness(word, args.k, args.l, args.r,
                            fp_provider(r_fp_oracle, "max-rule", budget))
    return Claim(compose_word(word), args.k, args.l, c, args.r), c, trace


def _theorem_product(args, budget: SearchBudget) -> Built:
    try:
        # unpacking refuses a pair with more or fewer than two fields
        kvec, pvec = zip(*((int(k), int(p)) for k, p in
                           (pair.split(":") for pair in args.coords.split(","))))
    except ValueError as exc:
        raise CliError(f"--coords reads k:p pairs, got {args.coords!r}") from exc
    fun, a, b, c, trace = product_ramsey_witness(kvec, pvec, args.r,
                                                 budget=budget)
    return Claim(fun, a, b, c, args.r), trace.c_values, trace


def _theorem_modeling(args, budget: SearchBudget) -> Built:
    fun = WordBoundary(WordCategory(args.k))
    v0, b = standard_window(args.k), ("L", args.l)
    c, note = hj_provider(budget)(fun, v0, b, args.r)
    return Claim(fun, v0, b, c, args.r), c, note


def _theorem_hj(args, budget: SearchBudget) -> Built:
    m, trace = hj_witness(args.k, args.l, args.r, budget=budget)
    fun = compose_word([WordBoundary(WordCategory(args.k))] * args.k)
    return (Claim(fun, standard_window(args.k), ("L", args.l), ("L", m),
                  args.r), m, trace)


def _theorem_fouche(args, budget: SearchBudget) -> Built:
    s_tree, t_tree = _parse_tree(args.s_tree), _parse_tree(args.t_tree)
    v, trace = fouche_witness(s_tree, t_tree, args.r, budget=budget)
    fun = (IdentityFunctor(tree_category()) if trace is None
           else compose_word([tree_truncation()] * height(s_tree)))
    return Claim(fun, s_tree, t_tree, v, args.r), v, trace


_THEOREMS = {"fp2p": _theorem_fp2p, "r-fp": _theorem_r_fp,
             "p-pigeonhole": _theorem_pigeonhole, "compose": _theorem_compose,
             "product": _theorem_product, "modeling": _theorem_modeling,
             "hj": _theorem_hj, "fouche": _theorem_fouche}


def cmd_construct(args) -> int:
    built = _THEOREMS[args.theorem](args, budget_from(args))
    return _settle(args, *built, args.theorem)


def _parse_pool(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CliError(f"--pool reads lo..hi, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise CliError(f"--pool lo..hi needs lo <= hi, got {text!r}")
    return range(lo, hi + 1)


def cmd_degree(args) -> int:
    cat, tokens, parse = category_handle(args.category)
    a, b = parse(args.a), parse(args.b)
    pool = _parse_pool(args.pool) if args.pool else None
    kw = _engine_kw(args)
    if args.bound:
        require_colors(args.r)          # r is otherwise read only by a search
        delta, = tokens.values()        # the category's one boundary functor
        bound, word = degree_upper_bound(a, b, delta, args.word_cap,
                                         budget=kw["budget"])
        print(f"image-size bound {bound} via word {word} "
              f"(trivial bound {cat.hom_size(a, b)})")
        if pool is None:
            return EXIT_PASS
    if pool is None:
        raise CliError("degree search needs --pool lo..hi")
    deg = ramsey_degree(cat, a, b, args.r, pool, jobs=args.jobs, **kw)
    if deg.degree is None:
        print("no pool object forces any color cap")
        return EXIT_FAIL
    print(f"degree {deg.degree} witness {deg.witness!r} "
          f"(pool attempts: {len(deg.trail)})")
    return EXIT_PASS


def cmd_replay(args) -> int:
    doc = load_certificate(args.cert)
    capped = args.max_colorings is not None or args.max_hom_size is not None
    own = budget_from(args)
    # mode, seed and samples default to None: the certificate's own values
    rep = replay_verify(doc, mode=args.mode, budget=own if capped else None,
                        seed=args.seed, samples=args.samples, jobs=args.jobs,
                        max_hom_size=own.max_hom_size)
    note = " (upgraded to exhaustive)" if rep.upgraded else ""
    print(f"stored verdict {rep.expected}, replay verdict {rep.verdict}{note}")
    print(_report(rep.result))
    if not rep.match:
        print("MISMATCH: certificate verdict not reproduced")
        return EXIT_FAIL
    return EXIT_PASS if rep.verdict == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# wiring


def _job_count(text: str) -> int:
    """--jobs, refused at parse time when below 1: a run that starts no
    check (degree --bound without --pool) would never see it otherwise."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"),
                   default="auto")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"sampling seed (default {DEFAULT_SEED}; replay "
                        f"defaults to the certificate's)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--jobs", type=_job_count, default=1,
                   help="worker processes for sampled scans; results are "
                        "independent of N")
    p.add_argument("--max-colorings", type=int, default=None)
    p.add_argument("--max-hom-size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramcat",
                     description="verify and construct partition witnesses")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    pv = sub.add_parser("verify", help="check a claimed witness")
    pv.add_argument("kind", choices=("p", "fp"))
    pv.add_argument("--category", required=True)
    pv.add_argument("--functor", default=None,
                    help="comma-separated word, e.g. dR or dR,dR")
    pv.add_argument("--a", required=True)
    pv.add_argument("--b", required=True)
    pv.add_argument("--c", required=True)
    pv.add_argument("--r", type=int, required=True)
    pv.add_argument("--s", default=None,
                    help="fp only: comma-separated morphism hexes "
                         "(default: the whole image of hom(a, b))")
    pv.add_argument("--f-prime", default=None, help="fp only: morphism hex")
    pv.add_argument("--g-prime", default=None, help="fp only: morphism hex")
    _add_engine_flags(pv)
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("construct", help="build a witness from a theorem")
    pc.add_argument("--theorem", choices=sorted(_THEOREMS), required=True)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--l", type=int, default=1)
    pc.add_argument("--r", type=int, required=True)
    pc.add_argument("--k1", type=int, default=2, help="p-pigeonhole source")
    pc.add_argument("--orientation", choices=ORIENTATIONS,
                    default="definition")
    pc.add_argument("--length", type=int, default=2,
                    help="compose: number of boundary applications")
    pc.add_argument("--coords", default="1:2,1:2",
                    help="product: comma-separated k:p pairs")
    pc.add_argument("--s-tree", default="1,0", help="fouche: child counts")
    pc.add_argument("--t-tree", default="2,0,0", help="fouche: child counts")
    pc.add_argument("--max-color-bits", type=int,
                    default=SearchBudget.max_color_bits)
    pc.add_argument("--max-pairs", type=int, default=SearchBudget.max_pairs)
    _add_engine_flags(pc)
    pc.set_defaults(fn=cmd_construct)

    pd = sub.add_parser("degree", help="Ramsey degrees and image-size bounds")
    pd.add_argument("--category", default="R")
    pd.add_argument("--a", required=True)
    pd.add_argument("--b", required=True)
    pd.add_argument("--r", type=int, required=True)
    pd.add_argument("--pool", default=None, help="lo..hi range of R objects")
    pd.add_argument("--bound", action="store_true",
                    help="print the image-size bound before any pool search")
    pd.add_argument("--word-cap", type=int, default=3)
    _add_engine_flags(pd)
    pd.set_defaults(fn=cmd_degree)

    pr = sub.add_parser("replay", help="re-verify a stored certificate")
    pr.add_argument("cert")
    _add_engine_flags(pr)
    # --mode, --seed and --samples default to the certificate's own
    pr.set_defaults(fn=cmd_replay, mode=None, seed=None, samples=None)
    for p in (pv, pc):          # the two commands that write a certificate
        p.add_argument("--out", default=None, help="write the certificate here")
    return parser


# (error, stderr label, exit code); the first match wins, subclasses first
_ERRORS = ((BudgetExceeded, "budget refusal", EXIT_BUDGET),
           (StaleCertificateError, "stale certificate", EXIT_FAIL),
           (CertificateError, "bad certificate", EXIT_FAIL),
           (ConstructionError, "construction failed", EXIT_FAIL),
           (RecursionError, "input nested too deeply", EXIT_USAGE),
           (AssertionError, "consistency check failed", EXIT_FAIL),
           (OSError, "cannot read/write", EXIT_USAGE),
           (ValueError, "invalid inputs", EXIT_USAGE))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.functor is None:
            raise CliError("verify needs --functor")
        return args.fn(args)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        label, code = next((label, code) for cls, label, code in _ERRORS
                           if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
