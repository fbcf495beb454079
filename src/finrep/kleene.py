"""Bounded regular expressions over finite alphabets.

Expressions are capped by node count, traces are words capped by length,
and satisfaction is bounded-language membership.  At these caps the
semantic order (language inclusion among the bounded languages) is exact
by construction; the axiomatic order generated from explicit instance
lists is sound but incomplete, and the gap is measured, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .fset import FiniteSet, check_budget, intern
from .functors import ContainerFunctor, ListFunctor, split_tree
from .hor import HOR
from .rel import Rel, column_classes, star, under, union
from .verdict import LawReport, Verdict, first_violation

_WORD_BITS = 64


@dataclass(frozen=True)
class RegExpr:
    kind: str
    letter: int | None = None
    children: tuple["RegExpr", ...] = ()

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)


def re_letter(i: int) -> RegExpr:
    return RegExpr("letter", i)


def re_zero() -> RegExpr:
    return RegExpr("zero")


def re_eps() -> RegExpr:
    return RegExpr("eps")


def re_plus(e: RegExpr, f: RegExpr) -> RegExpr:
    return RegExpr("plus", None, (e, f))


def re_cat(e: RegExpr, f: RegExpr) -> RegExpr:
    return RegExpr("cat", None, (e, f))


def re_star(e: RegExpr) -> RegExpr:
    return RegExpr("star", None, (e,))


def regex_label(e: RegExpr, alphabet: FiniteSet) -> str:
    if e.kind == "letter":
        lab = alphabet.elements[e.letter]
        if any(c in lab for c in "+.*()01<>"):
            lab = f"<{lab}>"
        return lab
    if e.kind == "zero":
        return "0"
    if e.kind == "eps":
        return "1"
    if e.kind == "plus":
        return f"({regex_label(e.children[0], alphabet)}+{regex_label(e.children[1], alphabet)})"
    if e.kind == "cat":
        return f"({regex_label(e.children[0], alphabet)}.{regex_label(e.children[1], alphabet)})"
    return f"{regex_label(e.children[0], alphabet)}*"


class RegexFunctor(ContainerFunctor):
    """Expressions of bounded node count; renaming maps letters."""

    def __init__(self, size_cap: int):
        if size_cap < 1:
            raise ValueError("expression size bound must be at least 1")
        self.size_cap = size_cap
        self.key = ("reg", size_cap)
        self.name = f"regex(size {size_cap})"

    def size(self, a: FiniteSet) -> int:
        """Element count of the carrier over `a`, counted before it is built
        and refused at the first size over the budget: the letters, 0 and 1
        at size 1; a star adds one node, + and . join two subtrees."""
        by_size, total = [0, len(a) + 2], 0
        for s in range(1, self.size_cap + 1):
            if s > 1:
                joins = sum([by_size[i] * by_size[s - 1 - i] for i in range(1, s - 1)])
                by_size.append(by_size[s - 1] + 2 * joins)
            total += by_size[s]
            check_budget(total, "expression carrier over %r up to size %d", a.name, s)
        return total

    def carrier(self, a: FiniteSet) -> FiniteSet:
        def build():
            # by_size[s]: the expressions of exactly s nodes, in carrier order
            by_size = [[], [re_letter(i) for i in range(len(a))] + [re_zero(), re_eps()]]
            for s in range(2, self.size_cap + 1):
                level = [re_star(e) for e in by_size[s - 1]]
                for op in (re_plus, re_cat):
                    level += [op(e, f) for i in range(1, s - 1)
                              for e in by_size[i] for f in by_size[s - 1 - i]]
                by_size.append(level)
            exprs = [e for level in by_size for e in level]
            labels = [regex_label(e, a) for e in exprs]
            return FiniteSet(f"reg{self.size_cap}({a.name})", labels, payload=tuple(exprs))

        self.size(a)
        return intern(("reg", self.size_cap, a), build)

    def split(self, e: RegExpr):
        return split_tree(e, "kind", "letter")


def word_carrier(alphabet: FiniteSet, word_len_cap: int) -> FiniteSet:
    return ListFunctor(word_len_cap).carrier(alphabet)


def language_table(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int):
    """Bounded language of every expression in the carrier, as bit masks
    over the word carrier.  Truncation applies at every concatenation and
    star step, so the result is exactly the bounded words of the language."""
    # checked on every request: a memoized table must not outlive a lower budget
    RegexFunctor(expr_size_cap).size(alphabet)
    ListFunctor(word_len_cap).size(alphabet)

    def build():
        exprs = RegexFunctor(expr_size_cap).carrier(alphabet)
        words = word_carrier(alphabet, word_len_cap)
        if len(words) > _WORD_BITS:
            raise BudgetError(f"word carrier too large for masks: {len(words)} > {_WORD_BITS}")
        n = len(words)
        cat_table = np.full((n, n), -1, dtype=np.int64)
        for i, u in enumerate(words.payload):
            for j, v in enumerate(words.payload):
                if len(u) + len(v) <= word_len_cap:
                    cat_table[i, j] = words.locate(u + v)

        def cat_mask(m1: int, m2: int) -> int:
            out = 0
            for i in _bits(m1):
                row = cat_table[i]
                for j in _bits(m2):
                    k = row[j]
                    if k >= 0:
                        out |= 1 << int(k)
            return out

        memo: dict[RegExpr, int] = {}

        def lang(e: RegExpr) -> int:
            got = memo.get(e)
            if got is not None:
                return got
            if e.kind == "letter":
                out = 1 << words.locate((e.letter,))
            elif e.kind == "zero":
                out = 0
            elif e.kind == "eps":
                out = 1 << words.locate(())
            elif e.kind == "plus":
                out = lang(e.children[0]) | lang(e.children[1])
            elif e.kind == "cat":
                out = cat_mask(lang(e.children[0]), lang(e.children[1]))
            else:
                body = lang(e.children[0])
                out = 1 << words.locate(())
                while True:
                    grown = out | cat_mask(out, body)
                    if grown == out:
                        break
                    out = grown
            memo[e] = out
            return out

        masks = np.array([lang(e) for e in exprs.payload], dtype=np.uint64)
        return exprs, words, masks

    return intern(("ka-langs", expr_size_cap, word_len_cap, alphabet), build)


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def bounded_language(alphabet: FiniteSet, e, word_len_cap: int, expr_size_cap: int = 7) -> frozenset:
    """Set of word labels matched within the length bound."""
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    mask = int(masks[exprs.index(e) if isinstance(e, str) else exprs.locate(e)])
    return frozenset(words.elements[i] for i in _bits(mask))


def models_matrix(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> Rel:
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    shifts = np.arange(len(words), dtype=np.uint64)
    m = (masks[None, :] >> shifts[:, None]) & np.uint64(1)
    return Rel(words, exprs, m.astype(bool))


def semantic_leq(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> Rel:
    """Language inclusion at the bound, computed from masks."""
    exprs, _, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    m = (masks[:, None] & ~masks[None, :]) == 0
    return Rel(exprs, exprs, m)


def generate_axiom_instances(alphabet: FiniteSet, expr_size_cap: int) -> list[tuple[int, int]]:
    """Instance pairs (below, above) of the usual equational axioms for
    union, concatenation, and one unfolding of star, restricted to the
    expressions whose composites stay inside the carrier.

    Generated by scanning the carrier for the axiom shapes: an instance
    only exists when both sides are in the carrier, so matching one side
    and looking up the rewritten partner finds every instance."""
    exprs = RegexFunctor(expr_size_cap).carrier(alphabet)
    pairs = set()

    def eq(a: RegExpr, b: RegExpr):
        ia, ib = exprs.locate(a, None), exprs.locate(b, None)
        if ia is not None and ib is not None:
            pairs.add((ia, ib))
            pairs.add((ib, ia))

    def le(a: RegExpr, b: RegExpr):
        ia, ib = exprs.locate(a, None), exprs.locate(b, None)
        if ia is not None and ib is not None:
            pairs.add((ia, ib))

    zero, eps = re_zero(), re_eps()
    for p in exprs.payload:
        if p.kind == "plus":
            e, f = p.children
            eq(p, re_plus(f, e))
            le(e, p)
            le(f, p)
            if e == f:
                eq(p, e)
            if f == zero:
                eq(p, e)
            if e == zero:
                eq(p, f)
            if f.kind == "plus":
                g, h = f.children
                eq(p, re_plus(re_plus(e, g), h))
            if e == eps and f.kind == "cat" and f.children[1] == re_star(f.children[0]):
                eq(p, f.children[1])
        elif p.kind == "cat":
            e, f = p.children
            if f == eps:
                eq(p, e)
            if e == eps:
                eq(p, f)
            if f == zero or e == zero:
                eq(p, zero)
            if f.kind == "cat":
                g, h = f.children
                eq(p, re_cat(re_cat(e, g), h))
            if f.kind == "plus":
                g, h = f.children
                eq(p, re_plus(re_cat(e, g), re_cat(e, h)))
            if e.kind == "plus":
                g, h = e.children
                eq(p, re_plus(re_cat(g, f), re_cat(h, f)))
            if e == f and e.kind == "star":
                eq(p, e)
        elif p.kind == "star":
            e = p.children[0]
            le(eps, p)
            le(e, p)
    return sorted(pairs)


def axiomatic_leq(alphabet: FiniteSet, expr_size_cap: int, axiom_pairs) -> Rel:
    """Reflexive-transitive closure of the instance pairs.  Dense; meant
    for carriers small enough to validate on probes."""
    exprs = RegexFunctor(expr_size_cap).carrier(alphabet)
    m = np.zeros((len(exprs), len(exprs)), dtype=bool)
    for i, j in axiom_pairs:
        m[i, j] = True
    return star(union(Rel.identity(exprs), Rel(exprs, exprs, m)))


def ka_hor(
    expr_size_cap: int = 3,
    word_len_cap: int = 2,
    leq_mode: str = "semantic",
    axioms=None,
) -> HOR:
    """Words against expressions, polymorphic in the alphabet."""
    if leq_mode not in ("semantic", "axiomatic"):
        raise ValueError(f"ka order mode must be semantic or axiomatic, got {leq_mode!r}")
    if axioms is None:
        axioms = generate_axiom_instances

    def models_gen(a):
        return models_matrix(a, expr_size_cap, word_len_cap)

    def leq_gen(a):
        if leq_mode == "semantic":
            return semantic_leq(a, expr_size_cap, word_len_cap)
        return axiomatic_leq(a, expr_size_cap, axioms(a, expr_size_cap))

    return HOR(
        name=f"ka({leq_mode}, size {expr_size_cap}, words {word_len_cap})",
        t_functor=ListFunctor(word_len_cap),
        e_functor=RegexFunctor(expr_size_cap),
        models_gen=models_gen,
        leq_gen=leq_gen,
    )


def ka_semantic_exactness(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> Verdict:
    """Semantic containment must equal the semantic order cell for cell.
    Containment is the residual of the satisfaction matrix, the order comes
    from the language masks, so the two sides are independent routes.  Both
    are read on the classes of expressions that share their satisfaction
    column and their mask: each side is constant on such a class, so the
    first disagreement, lowest row then lowest column, lies between the
    lowest members of two classes."""
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    models = models_matrix(alphabet, expr_size_cap, word_len_cap).m
    mask_bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8),
                              axis=1, count=len(words), bitorder="little").T
    first, _ = column_classes(np.vstack([models, mask_bits.astype(bool)]))
    reps = FiniteSet(f"classes({exprs.name})", [exprs.elements[i] for i in first])
    sat = Rel(words, reps, models[:, first])
    rep_masks = masks[first]
    differ = under(sat, sat).m != ((rep_masks[:, None] & ~rep_masks[None, :]) == 0)
    if differ.any():
        i, j = divmod(int(np.argmax(differ)), len(first))
        return Verdict("semantic-exactness", False, witness=(reps.elements[i], reps.elements[j]))
    return Verdict("semantic-exactness", True, note=f"{len(exprs)} expressions, {len(words)} words")


def _derivable_from(src: int, adjacency: dict) -> set:
    seen = {src}
    frontier = [src]
    while frontier:
        i = frontier.pop()
        for j in adjacency.get(i, ()):
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


def ka_completeness_report(
    alphabet: FiniteSet,
    expr_size_cap: int,
    word_len_cap: int,
    axioms=None,
    gap_scan_limit: int = 200,
) -> LawReport:
    """Soundness of the instance list plus the first measured gap: a true
    bounded-language inclusion the instances cannot derive."""
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    if axioms is None:
        axioms = generate_axiom_instances
    pairs = axioms(alphabet, expr_size_cap)
    report = LawReport(subject=f"axiomatic order over {len(exprs)} expressions")
    mask_ints = [int(m) for m in masks]
    full = (1 << len(words)) - 1
    law = "axiom-instances-sound"
    report.add(first_violation(
        law,
        (((mask_ints[i] & ~mask_ints[j] & full) == 0
          or Verdict(law, False, (exprs.elements[i], exprs.elements[j])), None) for i, j in pairs),
        lambda _: "",
        note=(
            f"{len(pairs)} instances semantically valid; the closure stays "
            "below the semantic order because that order is reflexive and transitive"
        ) if pairs else "no axiom instances supplied: the generated order is syntactic identity",
    ))
    if not pairs:
        report.scope = "degenerate instance list"

    adjacency: dict[int, list] = {}
    for i, j in pairs:
        adjacency.setdefault(i, []).append(j)
    gap = None
    scanned = 0
    for i in range(len(exprs)):
        if scanned >= gap_scan_limit:
            break
        reach = _derivable_from(i, adjacency)
        mi = mask_ints[i]
        for j in range(len(exprs)):
            if (mi & ~mask_ints[j] & full) == 0 and j not in reach:
                gap = (i, j)
                break
        scanned += 1
        if gap:
            break
    if gap:
        i, j = gap
        report.add(
            Verdict(
                "completeness-gap",
                True,
                witness=(exprs.elements[i], exprs.elements[j]),
                note="true at the bound but not derivable from the instances",
            )
        )
    else:
        report.add(
            Verdict(
                "completeness-gap",
                True,
                note=f"no gap among the first {scanned} expressions at this bound",
            )
        )
    return report
