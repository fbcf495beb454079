"""Bounded regular expressions over finite alphabets.

Expressions are capped by node count, traces are words capped by length,
and satisfaction is bounded-language membership.  At these caps the
semantic order (language inclusion among the bounded languages) is exact
by construction; the axiomatic order generated from explicit instance
lists is sound but incomplete, and the gap is measured, not hidden.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .fset import FiniteSet, check_cells, intern
from .functors import HOLE, ListFunctor, SyntaxFunctor, SyntaxIndex, syntax_finder
from .hor import HOR
from .naturality import IndexedRelation
from .rel import Rel, column_classes, star
from .represent import semantic_containment
from .verdict import LawReport, Verdict

_WORD_BITS = 64
# expressions whose derivable upper sets are searched for a completeness gap
_GAP_SCAN_LIMIT = 200


# head codes of the index arrays; a letter is the hole
LETTER = HOLE
ZERO, EPS, PLUS, CAT, STAR = range(1, 6)


class RegexFunctor(SyntaxFunctor):
    """Expressions of bounded node count; renaming maps letters."""

    def __init__(self, size_cap: int):
        if size_cap < 1:
            raise ValueError("expression size bound must be at least 1")
        self.size_cap = size_cap
        self.key = ("reg", size_cap)
        self.name = f"regex(size {size_cap})"
        self.stem = f"reg{size_cap}"

    bounded = "expression carrier over %r up to size %d"

    def totals(self, n: int):
        """(size s, expressions of at most s nodes) for s = 1..size_cap: the
        letters, 0 and 1 at size 1; a star adds one node, + and . join two
        subtrees."""
        by_size, total = [0, n + 2], 0
        for s in range(1, self.size_cap + 1):
            if s > 1:
                joins = sum([by_size[i] * by_size[s - 1 - i] for i in range(1, s - 1)])
                by_size.append(by_size[s - 1] + 2 * joins)
            total += by_size[s]
            yield s, total

    def index(self, letters: int) -> SyntaxIndex:
        """The carrier order, level by level: a level's stars over the level
        below, then its + and then its . pairs, by left size, left operand
        major.  A letter's first kid is its letter, a star's its operand."""
        heads = [np.r_[np.full(letters, LETTER), ZERO, EPS]]
        lefts, rights = [np.r_[np.arange(letters), -1, -1]], [np.full(letters + 2, -1)]
        bounds = [0, letters + 2]
        for s in range(2, self.size_cap + 1):
            below = np.arange(bounds[s - 2], bounds[s - 1])
            # one (left, right) grid per split of the s - 1 child nodes,
            # shared by + and .
            e, f = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
            for i in range(1, s - 1):
                ls, rs = np.arange(bounds[i - 1], bounds[i]), np.arange(bounds[s - 2 - i], bounds[s - 1 - i])
                e.append(np.repeat(ls, len(rs)))
                f.append(np.tile(rs, len(ls)))
            e, f = np.concatenate(e), np.concatenate(f)
            heads.append(np.repeat([STAR, PLUS, CAT], [len(below), len(e), len(e)]))
            lefts += [below, e, e]
            rights += [np.full(len(below), -1), f, f]
            bounds.append(bounds[-1] + len(below) + 2 * len(e))
        head, left, right = (np.concatenate(x).astype(np.int64) for x in (heads, lefts, rights))
        return SyntaxIndex(head, np.stack([left, right], axis=1), np.array(bounds, dtype=np.int64))

    def leaf(self, lab: str) -> str:
        """A letter's label: its base label, fenced when it holds a
        character of the syntax."""
        return f"<{lab}>" if any(c in lab for c in "+.*()01<>") else lab

    # (open, separator, close) by head code; a letter is its leaf
    formats = (None, ("0", "", ""), ("1", "", ""), ("(", "+", ")"), ("(", ".", ")"), ("", "", "*"))

    # own name on the class, where the benchmark tracer rebinds it
    carrier = SyntaxFunctor.carrier


def word_carrier(alphabet: FiniteSet, word_len_cap: int) -> FiniteSet:
    return ListFunctor(word_len_cap).carrier(alphabet)


def _concatenation(words: FiniteSet, word_len_cap: int):
    """Bounded concatenation of word masks, elementwise over two arrays.
    Prefixing word i moves the words of one length as a block: word j goes
    to word j + shift, with the shift fixed per (i, length).  In list order
    a concatenation never lies before its suffix, so shifts are >= 0."""
    blocks: dict[tuple[int, int], int] = {}
    for i, u in enumerate(words.payload):
        for j, v in enumerate(words.payload):
            if len(u) + len(v) <= word_len_cap:
                key = (i, words.locate(u + v) - j)
                blocks[key] = blocks.get(key, 0) | 1 << j
    groups: dict[np.uint64, list] = {}
    for (i, shift), block in blocks.items():
        groups.setdefault(np.uint64(i), []).append((np.uint64(block), np.uint64(shift)))

    def cat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(len(a), dtype=np.uint64)
        for i, moves in groups.items():
            has_i = -((a >> i) & np.uint64(1))  # all ones where a holds word i
            for block, shift in moves:
                out |= has_i & ((b & block) << shift)
        return out

    return cat


def language_table(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int):
    """Bounded language of every expression in the carrier, as bit masks
    over the word carrier.  Truncation applies at every concatenation and
    star step, so the result is exactly the bounded words of the language.
    Masks are computed level by level from the children's masks."""
    # checked on every request: a memoized table must not outlive a lower budget
    RegexFunctor(expr_size_cap).size(alphabet)
    ListFunctor(word_len_cap).size(alphabet)

    def build():
        exprs, ix = RegexFunctor(expr_size_cap).arrays(alphabet)
        words = word_carrier(alphabet, word_len_cap)
        if len(words) > _WORD_BITS:
            raise BudgetError(f"word carrier too large for masks: {len(words)} > {_WORD_BITS}")
        cat = _concatenation(words, word_len_cap)
        one = np.uint64(1)
        masks = np.zeros(len(exprs), dtype=np.uint64)
        for i in range(len(alphabet)):  # the letters lead the carrier
            at = words.locate((i,), None)  # no one-letter words at word cap 0
            if at is not None:
                masks[i] = one << np.uint64(at)
        masks[ix.head == EPS] = one
        for lo, hi in zip(ix.bounds[1:-1], ix.bounds[2:]):
            kind, left, right = ix.head[lo:hi], ix.kids[lo:hi, 0], ix.kids[lo:hi, 1]
            level = masks[lo:hi]
            plus, conc, star = kind == PLUS, kind == CAT, kind == STAR
            level[plus] = masks[left[plus]] | masks[right[plus]]
            level[conc] = cat(masks[left[conc]], masks[right[conc]])
            # star by squaring: (1 + L)^(2^t) until it stops growing
            closure = one | masks[left[star]]
            todo = np.arange(len(closure))
            while todo.size:
                part = closure[todo]
                grown = part | cat(part, part)
                closure[todo] = grown
                todo = todo[grown != part]
            level[star] = closure
        return exprs, words, masks

    return intern(("ka-langs", expr_size_cap, word_len_cap, alphabet), build)


def models_matrix(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> Rel:
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    shifts = np.arange(len(words), dtype=np.uint64)
    m = (masks[None, :] >> shifts[:, None]) & np.uint64(1)
    return Rel(words, exprs, m.astype(bool))


def semantic_leq(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> Rel:
    """Language inclusion at the bound, computed from masks."""
    n = RegexFunctor(expr_size_cap).size(alphabet)
    check_cells(n, n, "semantic order over %r up to size %d", alphabet.name, expr_size_cap)
    exprs, _, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    m = (masks[:, None] & ~masks[None, :]) == 0
    return Rel(exprs, exprs, m)


def generate_axiom_instances(alphabet: FiniteSet, expr_size_cap: int) -> np.ndarray:
    """Instance pairs (below, above) of the usual equational axioms for
    union, concatenation, and one unfolding of star, restricted to the
    expressions whose composites stay inside the carrier: sorted, distinct,
    as an (m, 2) array.

    Each axiom shape is a mask over the carrier's index arrays: an instance
    only exists when both sides are in the carrier, so matching one side
    and looking up the rewritten partner finds every instance."""
    ix = RegexFunctor(expr_size_cap).arrays(alphabet)[1]
    kind, left, right = ix.head, ix.kids[:, 0], ix.kids[:, 1]
    find = syntax_finder(ix)
    zero, eps = (int(np.flatnonzero(kind == k)[0]) for k in (ZERO, EPS))
    below, above = [], []

    def le(lo, hi):
        lo, hi = np.broadcast_arrays(lo, hi)
        keep = (lo >= 0) & (hi >= 0)
        below.append(lo[keep])
        above.append(hi[keep])

    def eq(p, q, where=Ellipsis):
        q = np.broadcast_to(q, p.shape)
        le(p[where], q[where])
        le(q[where], p[where])

    # grandchildren are read for every p; a shape's mask keeps only the
    # rows where its operand has the kind that makes them children
    # e+f = f+e, e <= e+f, f <= e+f, e+e = e, e+0 = e, 0+f = f,
    # e+(g+h) = (e+g)+h, 1+g.g* = g*
    p = np.flatnonzero(kind == PLUS)
    e, f = left[p], right[p]
    g, h = left[f], right[f]
    eq(p, find(PLUS, f, e))
    le(e, p)
    le(f, p)
    eq(p, e, e == f)
    eq(p, e, f == zero)
    eq(p, f, e == zero)
    eq(p, find(PLUS, find(PLUS, e, g), h), kind[f] == PLUS)
    eq(p, h, (e == eps) & (kind[f] == CAT) & (kind[h] == STAR) & (left[h] == g))

    # e.1 = e, 1.f = f, e.0 = 0.f = 0, e.(g.h) = (e.g).h,
    # e.(g+h) = e.g+e.h, (g+h).f = g.f+h.f, e*.e* = e*
    p = np.flatnonzero(kind == CAT)
    e, f = left[p], right[p]
    g, h = left[f], right[f]
    eq(p, e, f == eps)
    eq(p, f, e == eps)
    eq(p, zero, (f == zero) | (e == zero))
    eq(p, find(CAT, find(CAT, e, g), h), kind[f] == CAT)
    eq(p, find(PLUS, find(CAT, e, g), find(CAT, e, h)), kind[f] == PLUS)
    eg, eh = left[e], right[e]
    eq(p, find(PLUS, find(CAT, eg, f), find(CAT, eh, f)), kind[e] == PLUS)
    eq(p, e, (e == f) & (kind[e] == STAR))

    # 1 <= e*, e <= e*
    p = np.flatnonzero(kind == STAR)
    le(eps, p)
    le(left[p], p)

    n = len(kind)
    codes = np.sort(np.concatenate(below) * n + np.concatenate(above))
    codes = codes[np.diff(codes, prepend=-1) != 0]
    return np.stack(divmod(codes, n), axis=1)


def axiomatic_leq(alphabet: FiniteSet, expr_size_cap: int, axiom_pairs: np.ndarray) -> Rel:
    """Reflexive-transitive closure of the (m, 2) instance pairs.  Dense;
    meant for carriers small enough to validate on probes."""
    exprs = RegexFunctor(expr_size_cap).carrier(alphabet)
    check_cells(len(exprs), len(exprs), "axiomatic order over %r", exprs.name)
    m = np.zeros((len(exprs), len(exprs)), dtype=bool)
    m[axiom_pairs[:, 0], axiom_pairs[:, 1]] = True
    return star(Rel(exprs, exprs, m))


def ka_hor(size: int = 3, words: int = 2, mode: str = "semantic") -> HOR:
    """Words of length at most `words` against expressions of at most
    `size` nodes, polymorphic in the alphabet; the order is language
    inclusion (semantic) or derivability from the axiom instances."""
    if mode not in ("semantic", "axiomatic"):
        raise ValueError(f"ka order mode must be semantic or axiomatic, got {mode!r}")

    name, t, e = f"ka({mode}, size {size}, words {words})", ListFunctor(words), RegexFunctor(size)
    leq = ((lambda a: semantic_leq(a, size, words)) if mode == "semantic"
           else lambda a: axiomatic_leq(a, size, generate_axiom_instances(a, size)))
    return HOR(name, IndexedRelation(f"{name}-satisfaction", t, e, lambda a: models_matrix(a, size, words)),
               IndexedRelation(f"{name}-order", e, e, leq))


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
    reps = FiniteSet(f"classes({exprs.name})", exprs.pick(first))
    sat = Rel(words, reps, models[:, first])
    rep_masks = masks[first]
    differ = semantic_containment(sat, reps.name).m != ((rep_masks[:, None] & ~rep_masks[None, :]) == 0)
    if differ.any():
        i, j = divmod(int(np.argmax(differ)), len(first))
        return Verdict("semantic-exactness", False, witness=(reps.elements[i], reps.elements[j]))
    return Verdict("semantic-exactness", True, note=f"{len(exprs)} expressions, {len(words)} words")


def _derivable(i: int, succ: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Expressions reachable from i along the pairs, as a bool array; the
    successors of k are succ[start[k]:start[k + 1]]."""
    seen = np.zeros(len(start) - 1, dtype=bool)
    seen[i] = True
    frontier = np.array([i])
    while frontier.size:
        lo, count = start[frontier], start[frontier + 1] - start[frontier]
        reached = np.zeros_like(seen)
        reached[succ[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return seen


def ka_completeness_report(alphabet: FiniteSet, expr_size_cap: int, word_len_cap: int) -> LawReport:
    """Soundness of the instance list plus the first measured gap: a true
    bounded-language inclusion the instances cannot derive, searched from
    the first _GAP_SCAN_LIMIT expressions."""
    exprs, words, masks = language_table(alphabet, expr_size_cap, word_len_cap)
    pairs = generate_axiom_instances(alphabet, expr_size_cap)
    report = LawReport(subject=f"axiomatic order over {len(exprs)} expressions")
    law = "axiom-instances-sound"
    unsound = np.flatnonzero(masks[pairs[:, 0]] & ~masks[pairs[:, 1]])
    if unsound.size:
        i, j = pairs[unsound[0]]
        report.add(Verdict(law, False, tuple(exprs.pick([i, j]))))
    elif len(pairs):
        report.add(Verdict(law, True, note=(
            f"{len(pairs)} instances semantically valid; the closure stays "
            "below the semantic order because that order is reflexive and transitive")))
    else:
        report.add(Verdict(law, True, note="no axiom instances supplied: the generated order is syntactic identity"))
        report.scope = "degenerate instance list"

    order = np.argsort(pairs[:, 0], kind="stable")
    succ = pairs[order, 1]
    start = np.searchsorted(pairs[order, 0], np.arange(len(exprs) + 1))
    scanned = min(len(exprs), _GAP_SCAN_LIMIT)
    for i in range(scanned):
        missed = ((masks[i] & ~masks) == 0) & ~_derivable(i, succ, start)
        if missed.any():
            j = int(np.argmax(missed))
            report.add(Verdict("completeness-gap", True, witness=tuple(exprs.pick([i, j])),
                               note="true at the bound but not derivable from the instances"))
            return report
    report.add(Verdict("completeness-gap", True,
                       note=f"no gap among the first {scanned} expressions at this bound"))
    return report
