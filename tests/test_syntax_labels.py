"""Syntax carriers render their labels on demand, against the eager route.

`SyntaxFunctor.carrier` renders the labels of a carrier over plain base
labels only when they are read, and checks nothing, because such labels
are distinct by construction.  The eager route it replaced is kept here as
the reference: every label rendered level by level from the index arrays,
then the duplicate-label check.  On any base labels and operator symbols
the two must refuse alike or give the same labels, and `pick` must give the
labels at its positions without rendering the rest.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finrep.fset import FiniteSet
from finrep.functors import Signature, TermFunctor
from finrep.kleene import CAT, PLUS, STAR, RegexFunctor

# ------------------------------------------------------------ references


def reference_regex_labels(ix, base) -> list[str]:
    """Labels level by level: each level's stars, sums and products read
    their children's labels, which lie in lower levels."""
    labels = [f"<{lab}>" if any(c in lab for c in "+.*()01<>") else lab for lab in base]
    labels += ["0", "1"]
    for lo, hi in zip(ix.bounds[1:-1], ix.bounds[2:]):
        for kind in (STAR, PLUS, CAT):
            at = lo + np.flatnonzero(ix.head[lo:hi] == kind)
            ls, rs = ix.kids[at, 0].tolist(), ix.kids[at, 1].tolist()
            if kind == STAR:
                labels += [labels[l] + "*" for l in ls]
            else:
                sign = "+" if kind == PLUS else "."
                labels += [f"({labels[l]}{sign}{labels[r]})" for l, r in zip(ls, rs)]
    return labels


def reference_term_labels(sig, ix, base) -> list[str]:
    """Labels level by level: a variable is its base label, fenced when it
    bears syntax (terms over terms) or names a constant; a constant is its
    symbol; an operator node reads its children's labels."""
    syms = [None, *(s for s, _ in sig.ops)]
    nullary = {s for s, k in sig.ops if k == 0}
    labels = [f"<{lab}>" if lab in nullary or any(c in lab for c in "(),<>") else lab for lab in base]
    labels += [syms[h] for h in ix.head[len(base):ix.bounds[1]].tolist()]
    for h, row in zip(ix.head[ix.bounds[1]:].tolist(), ix.kids[ix.bounds[1]:].tolist()):
        labels.append(f"{syms[h]}({','.join(labels[k] for k in row if k >= 0)})")
    return labels


def reference_carrier(functor, base: FiniteSet) -> tuple[str, ...]:
    """The eager route: all labels, then the duplicate check."""
    ix = functor.index(len(base))
    if isinstance(functor, RegexFunctor):
        labels = reference_regex_labels(ix, base.elements)
    else:
        labels = reference_term_labels(functor.sig, ix, base.elements)
    name, seen = f"{functor.stem}({base.name})", set()
    for lab in labels:
        if lab in seen:
            raise ValueError(f"duplicate element label {lab!r} in carrier {name!r}")
        seen.add(lab)
    return tuple(labels)


def is_plain(functor, base) -> bool:
    """No base label would be fenced and no operator symbol holds a
    character that delimits a label."""
    if isinstance(functor, RegexFunctor):
        return not any(c in lab for lab in base for c in "+.*()01<>")
    special = "(),<>"
    nullary = {s for s, k in functor.sig.ops if k == 0}
    return not any(lab in nullary or any(c in lab for c in special) for lab in base) and not any(
        c in s for s, _ in functor.sig.ops for c in special)


def rendered(c: FiniteSet) -> bool:
    """Whether the carrier holds all its labels, read off the slot that
    `elements` fills, since reading `elements` renders them."""
    return c._elements is not None


# ------------------------------------------------------------ differential

# labels drawn from the plain letters alone as often as from all of them
TEXT = st.one_of(st.text(alphabet="ab[]", max_size=3), st.text(alphabet="ab<>(),.+*01[]", max_size=3))
BASES = st.lists(TEXT, max_size=3, unique=True)


def _compare(functor, labels, idx_draw):
    base = FiniteSet("A", labels)
    try:
        want = reference_carrier(functor, base)
    except ValueError as refused:
        with pytest.raises(ValueError) as got:
            functor.carrier(base)
        assert str(got.value) == str(refused)
        return
    c = functor.carrier(base)
    assert len(c) == len(want)
    assert rendered(c) is not is_plain(functor, labels)
    idx = idx_draw(len(want))
    assert c.pick(idx) == [want[i] for i in idx]
    assert rendered(c) is not is_plain(functor, labels)  # pick renders no carrier
    assert c.elements == want
    assert c.pick(idx) == [c.elements[i] for i in idx]
    assert all(c.index(lab) == i for i, lab in enumerate(want))


def _positions(data):
    return lambda n: data.draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []


@settings(max_examples=150, deadline=None)
@given(labels=BASES, cap=st.integers(1, 4), data=st.data())
def test_regex_labels_match_the_eager_route(labels, cap, data):
    _compare(RegexFunctor(cap), labels, _positions(data))


SYMBOLS = st.one_of(st.text(alphabet="fg", min_size=1, max_size=2),
                   st.text(alphabet="fg<>(),.+*01[]", min_size=1, max_size=2))
SIGNATURES = st.lists(st.tuples(SYMBOLS, st.integers(0, 2)), min_size=1, max_size=2, unique_by=lambda op: op[0])


@settings(max_examples=150, deadline=None)
@given(labels=BASES, ops=SIGNATURES, depth=st.integers(1, 3), data=st.data())
def test_term_labels_match_the_eager_route(labels, ops, depth, data):
    _compare(TermFunctor(Signature(tuple(ops)), depth), labels, _positions(data))


@pytest.mark.parametrize("functor, labels", [
    (RegexFunctor(3), ["0", "0>.<0>.<0"]),
    (TermFunctor(Signature.of({"mul": 2, "e": 0}), 2), ["(", "(>,<("]),
])
def test_fenced_labels_that_collide_are_refused(functor, labels):
    with pytest.raises(ValueError, match="duplicate element label"):
        reference_carrier(functor, FiniteSet("A", labels))
    with pytest.raises(ValueError, match="duplicate element label"):
        functor.carrier(FiniteSet("A", labels))


def test_plain_carrier_is_built_without_the_label_check(monkeypatch):
    base = FiniteSet("A", ["a", "b"])

    def checked(self, *args, **kwargs):
        raise AssertionError("a plain syntax carrier went through the label check")

    monkeypatch.setattr(FiniteSet, "__init__", checked)
    for functor in (RegexFunctor(6), TermFunctor(Signature.of({"mul": 2, "e": 0}), 3)):
        c = functor.carrier(base)
        assert c.pick([len(c) - 1, 0]) and not rendered(c)


def test_pick_after_a_full_read_reads_the_labels():
    c = RegexFunctor(4).carrier(FiniteSet("A", ["a", "b"]))
    assert "(a.b)" in c and rendered(c)
    assert c.pick(np.array([c.index("(a.b)"), 0])) == ["(a.b)", "a"]
    assert c.pick([]) == []


def test_lazy_carrier_dies_with_its_alphabet():
    # the renderer holds the index arrays and the leaf labels, never a
    # carrier, so reference counting alone frees it with the alphabet
    gc.disable()
    try:
        alphabet = FiniteSet("fresh", ["a", "b"])
        exprs = RegexFunctor(4).carrier(alphabet)
        exprs.pick([len(exprs) - 1])
        dead = weakref.ref(exprs)
        del alphabet, exprs
        assert dead() is None
    finally:
        gc.enable()
