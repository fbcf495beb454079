"""Command-line driver over declaration documents.

Every command reads a document, runs one checker or builder, prints one
report to standard output, and exits 0 when every verdict passed, 1 when
a violation was found, 2 on input errors, 3 when a cross-check that a
proved statement guarantees failed.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .document import FAMILY_BUILTINS, HOR_BUILTINS, PROBE_FLOORS, Document, DocumentError, parse_document
from .errors import BudgetError, CarrierMismatch, TheoremInconsistencyError
from .fset import SUBSET_CAP, carrier_budget
from .hor import (
    PreorderedSet,
    check_tilde_soundness,
    hat_lift,
    hor_arrow,
    instantiate,
    mon_hor,
)
from .kleene import ka_hor
from .laws import LawConfig, relation_law_suite
from .morphism import product, validate_morphism
from .naturality import (
    IndexedFunction,
    ProbeUniverse,
    classify_linearity,
    is_natural_relation,
    is_natural_transformation,
    linearity_check,
    membership_family,
    powerset_union,
    powerset_unit,
    samevars_family,
    term_flatten,
    term_unit,
    varlist_family,
)
from .reduction import compose_reductions, validate_reduction, validate_syntactic_closure
from .report import render
from .represent import (
    exactness_finding,
    is_exact,
    membership_representation,
    trivial_representation,
    validate_representation,
)
from .verdict import LawReport

# each builtin's builder, called with the parameters its declaration gives
FAMILY_BUILDERS = {
    "membership": membership_family,
    "singleton": powerset_unit,
    "union": powerset_union,
    "term-unit": term_unit,
    "term-flatten": term_flatten,
    "varlist": varlist_family,
    "samevars": samevars_family,
}
HOR_BUILDERS = {"mon": mon_hor, "ka": ka_hor}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finrep",
        description="finite checkers for representations, reductions, and liftings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--probe-max", type=int, help=(
        f"largest probe carrier (default {ProbeUniverse.max_size}); for laws relcore the largest exhaustive "
        f"size (default {LawConfig.exhaustive_max}), which a probes line's max does not set"))
    common.add_argument("--powerset-cap", type=int, help=f"subset bound for powerset builders (default {SUBSET_CAP})")
    common.add_argument("--seed", type=int, help=f"sampling seed (default {ProbeUniverse.seed})")
    common.add_argument("--samples", type=int, help=(
        f"sampled relations per carrier pair (default {ProbeUniverse.rel_samples}); for laws relcore "
        f"the sampled instances (default {LawConfig.samples}), which a probes line's samples sets"))
    common.add_argument("--budget", type=int, help="carrier element budget override")
    common.add_argument("--format", choices=["text", "structured"], default="text")

    sub = parser.add_subparsers(dest="group", required=True)

    check = sub.add_parser("check", parents=[common], help="validate a declared object")
    check.add_argument(
        "what",
        choices=["rep", "exact", "morphism", "reduction", "closure", "naturality", "linearity"],
    )
    check.add_argument("doc")
    check.add_argument("--name", help="declaration to check (default: the only one of its kind)")
    check.add_argument("--family", help="family declaration for naturality/linearity")
    check.add_argument("--side", choices=["both", "left", "right"], default="both")
    check.add_argument("--mode", choices=["both", "relations", "functions"], default="both")

    build = sub.add_parser("build", parents=[common], help="construct and validate a built-in object")
    build.add_argument("what", choices=["trivial", "membership", "product"])
    build.add_argument("doc")
    build.add_argument("--rel", help="relation for the trivial construction")
    build.add_argument("--set", dest="set_name", help="alphabet set for the membership construction")
    build.add_argument("--left", help="left factor representation")
    build.add_argument("--right", help="right factor representation")

    reduce_p = sub.add_parser("reduce", parents=[common], help="compose declared reductions")
    reduce_p.add_argument("what", choices=["compose"])
    reduce_p.add_argument("doc")
    reduce_p.add_argument("--first")
    reduce_p.add_argument("--second")

    hor_p = sub.add_parser("hor", parents=[common], help="instantiate and lift higher-order structures")
    hor_p.add_argument("what", choices=["instantiate", "arrow", "lift-preorder", "lift-rep"])
    hor_p.add_argument("doc")
    hor_p.add_argument("--hor", dest="hor_name", help="hor declaration (default: the only one)")
    hor_p.add_argument("--set", dest="set_name", help="alphabet set to instantiate at")
    hor_p.add_argument("--fun", dest="fun_name", help="declared function for the arrow action")
    hor_p.add_argument("--preorder", dest="preorder_name")
    hor_p.add_argument("--name", help="representation to lift over")

    laws_p = sub.add_parser("laws", parents=[common], help="run the relation-algebra law suite")
    laws_p.add_argument("what", choices=["relcore"])
    laws_p.add_argument("doc", nargs="?")

    return parser


# each probes key and the flag that overrides it
_PROBE_FLAGS = {"max": "probe_max", "samples": "samples", "seed": "seed"}


def _check_scope_flags(args):
    """Refuse scope flags below the least value that keeps a check
    meaningful; a probe flag has the floor of its probes key."""
    floors = {**{dest: PROBE_FLOORS[key] for key, dest in _PROBE_FLAGS.items()}, "budget": 1, "powerset_cap": 0}
    for dest, floor in floors.items():
        value = getattr(args, dest)
        if value is not None and value < floor:
            raise ValueError(f"--{dest.replace('_', '-')} must be at least {floor}, got {value}")


def _named(doc: Document, kind: str, name: str | None):
    if name is not None:
        return doc.lookup(kind, name)
    return doc.only(kind).obj


def _two_named(doc: Document, kind: str, first: str | None, second: str | None):
    if first is not None and second is not None:
        return doc.lookup(kind, first), doc.lookup(kind, second)
    if first is None and second is None:
        found = [d for d in doc.decls if d.kind == kind]
        if len(found) != 2:
            raise DocumentError(
                f"document declares {len(found)} {kind}s, name two explicitly"
            )
        return found[0].obj, found[1].obj
    raise DocumentError(f"name both {kind}s or neither")


def _probe_config(doc: Document | None):
    """The document's probes line, at most one; none gives no settings."""
    found = [d.obj for d in doc.decls if d.kind == "probes"] if doc is not None else []
    if len(found) > 1:
        raise DocumentError(f"document declares {len(found)} probes lines, expected at most one")
    return found[0] if found else {}


def _scope_settings(args, config: dict, **names) -> dict:
    """Keyword arguments for the scope settings a flag gives or, failing
    that, `config` (a probes line); `names` maps a probes key to its
    argument name.  A setting that neither gives keeps its default."""
    flags = {key: getattr(args, dest) for key, dest in _PROBE_FLAGS.items()}
    given = {**config, **{k: v for k, v in flags.items() if v is not None}}
    return {name: given[key] for key, name in names.items() if key in given}


def _built(builders: dict, grammar: dict, config: dict, cap: int | None):
    """The builtin `config` names, called with the parameters it gives;
    `cap` (--powerset-cap) fills a cap the builtin takes and `config` omits."""
    params = grammar[config["builtin"]]
    given = {key: config[key] for key in params if key in config}
    if cap is not None and "cap" in params:
        given.setdefault("cap", cap)
    return builders[config["builtin"]](**given)


def _scoped(report: LawReport, *sets) -> LawReport:
    """`report`, scoped to the given declared carriers, each named once,
    unless its checker set a scope."""
    inside = ", ".join(f"{len(s)} {s.name}" for s in {id(s): s for s in sets}.values())
    report.scope = report.scope or f"exhaustive over declared carriers ({inside})"
    return report


def _exactness(rep, bound: str = "") -> LawReport:
    """Validation, then exactness if the representation is sound."""
    report = _scoped(validate_representation(rep), rep.traces, rep.exprs)
    report.scope += bound
    if report.passed:
        report.add(is_exact(rep))
    return report


def _with_finding(rep) -> LawReport:
    """Validation, with exactness reported as a finding, never asserted:
    an instance of a structure, or a lift, need not be exact."""
    report = validate_representation(rep)
    report.add(exactness_finding(rep))
    return _scoped(report, rep.traces, rep.exprs)


def _cmd_check(args, doc: Document) -> LawReport:
    if args.what == "rep":
        rep = _named(doc, "representation", args.name)
        return _scoped(validate_representation(rep), rep.traces, rep.exprs)
    if args.what == "exact":
        return _exactness(_named(doc, "representation", args.name))
    if args.what == "morphism":
        m = _named(doc, "morphism", args.name)
        return _scoped(validate_morphism(m), m.source.exprs, m.target.exprs)
    if args.what == "reduction":
        r = _named(doc, "reduction", args.name)
        return _scoped(validate_reduction(r), r.source.exprs, r.target.exprs)
    if args.what == "closure":
        coarse, fine, down = _named(doc, "closure", args.name)
        return _scoped(validate_syntactic_closure(coarse, fine, down), coarse.exprs)
    family = _named(doc, "family", args.family or args.name)
    probes = ProbeUniverse(**_scope_settings(
        args, _probe_config(doc), max="max_size", samples="rel_samples", seed="seed"
    ))
    built = _built(FAMILY_BUILDERS, FAMILY_BUILTINS, family, args.powerset_cap)
    if args.what == "naturality":
        natural = is_natural_transformation if isinstance(built, IndexedFunction) else is_natural_relation
        return LawReport(built.name, [natural(built, probes)], probes.function_scope)
    rho = built.graph_family() if isinstance(built, IndexedFunction) else built
    if args.side == "both" and args.mode == "both":
        return classify_linearity(rho, probes)
    return linearity_check(rho, probes, side=args.side, mode=args.mode)


def _cmd_build(args, doc: Document) -> LawReport:
    if args.what == "trivial":
        return _exactness(trivial_representation(_named(doc, "rel", args.rel)))
    if args.what == "membership":
        cap = args.powerset_cap if args.powerset_cap is not None else SUBSET_CAP
        rep = membership_representation(_named(doc, "set", args.set_name), cap=cap)
        return _exactness(rep, f", subset bound {cap}")
    factors = _two_named(doc, "representation", args.left, args.right)
    unsound = [(f, lr) for f in factors if not (lr := validate_representation(f)).passed]
    if unsound:
        report = LawReport("product factors", [v for _, lr in unsound for v in lr.verdicts])
        return _scoped(report, *(s for f, _ in unsound for s in (f.traces, f.exprs)))
    rp, p1, p2 = product(*factors)
    report = _scoped(validate_representation(rp), rp.traces, rp.exprs)
    for tag, m in (("left-projection", p1), ("right-projection", p2)):
        report.verdicts += [replace(v, law=f"{tag}-{v.law}") for v in validate_morphism(m).verdicts]
    return report


def _cmd_reduce(args, doc: Document) -> LawReport:
    composite = compose_reductions(*_two_named(doc, "reduction", args.first, args.second))
    return _scoped(validate_reduction(composite), composite.source.exprs, composite.target.exprs)


def _cmd_hor(args, doc: Document) -> LawReport:
    h = _built(HOR_BUILDERS, HOR_BUILTINS, _named(doc, "hor", args.hor_name), args.powerset_cap)
    if args.what == "instantiate":
        return _with_finding(instantiate(h, _named(doc, "set", args.set_name)))
    if args.what == "arrow":
        m = hor_arrow(h, _named(doc, "fun", args.fun_name))
        return _scoped(validate_morphism(m), m.source.exprs, m.target.exprs)
    if args.what == "lift-preorder":
        order = _named(doc, "preorder", args.preorder_name)
        return _scoped(check_tilde_soundness(h, PreorderedSet(order.src, order)), order.src)
    rep = _named(doc, "representation", args.name)
    base = _scoped(validate_representation(rep), rep.traces, rep.exprs)
    if not base.passed:
        return base
    return _with_finding(hat_lift(h, rep))


def _cmd_laws(args, doc: Document | None) -> LawReport:
    # a probes line's max sizes the probe carriers, not the law suite
    config = {k: v for k, v in _probe_config(doc).items() if k != "max"}
    return relation_law_suite(LawConfig(**_scope_settings(
        args, config, max="exhaustive_max", samples="samples", seed="seed"
    )))


def _dispatch(args) -> LawReport:
    doc = None
    if getattr(args, "doc", None) is not None:
        try:
            with open(args.doc, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as e:
            raise DocumentError(f"cannot read {args.doc!r}: {e.strerror}") from None
        doc = parse_document(text)
    commands = {
        "check": _cmd_check, "build": _cmd_build, "reduce": _cmd_reduce, "hor": _cmd_hor, "laws": _cmd_laws,
    }
    return commands[args.group](args, doc)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else int(e.code or 0)
    try:
        _check_scope_flags(args)
        with carrier_budget(args.budget):
            report = _dispatch(args)
    except BudgetError as e:
        print(f"error: budget exceeded: {e}", file=sys.stderr)
        return 2
    except (DocumentError, CarrierMismatch, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TheoremInconsistencyError as e:
        first_line = str(e).partition("\n")[0]
        print(f"error: inconsistency: {first_line}", file=sys.stderr)
        return 3
    sys.stdout.write(render(f"{args.group} {args.what}", report, args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
