"""The morphism and reduction laws against their pointwise reference.

Hypothesis draws two representations with at most 4 elements per carrier
and the arrows between them: either a relabelled copy of the source with
the relabelling as phi, tau and psi (every law holds), perturbed by a few
flipped cells or redirected entries, or unrelated random data.  The
carriers of the two sides are distinct, so no arrow is an identity.  The
`(law, ok, witness, note)` list of `validate_morphism` and
`validate_reduction` must equal the one of `tests/oracle.py`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from finrep.fset import FiniteSet
from finrep.morphism import Morphism, validate_morphism
from finrep.reduction import Reduction, validate_reduction
from finrep.rel import FuncTable, Rel
from finrep.represent import Representation

from oracle import Rep, morphism_laws, reduction_laws


def _subset(draw, cells):
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return {c for c, k in zip(cells, keep) if k}


def _flip(draw, pairs, cells):
    """`pairs` with up to two cells toggled."""
    for cell in draw(st.lists(st.sampled_from(cells), max_size=2)) if cells else ():
        pairs ^= {cell}
    return pairs


def _redirect(draw, mapping, targets):
    """`mapping` with up to two entries sent elsewhere."""
    mapping = dict(mapping)
    for _ in range(draw(st.integers(0, 2))):
        mapping[draw(st.sampled_from(sorted(mapping)))] = draw(st.sampled_from(targets))
    return mapping


@st.composite
def cases(draw):
    """(source, target, phi, tau, psi, intact): `intact` marks an
    unperturbed relabelled copy."""
    nt, ne = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    src_traces, src_exprs = [f"s{i}" for i in range(nt)], [f"e{i}" for i in range(ne)]
    models = _subset(draw, [(t, e) for t in src_traces for e in src_exprs])
    leq = _subset(draw, [(x, y) for x in src_exprs for y in src_exprs])
    src = Rep(src_traces, src_exprs, models, leq | {(x, x) for x in src_exprs})
    if draw(st.booleans()):  # a relabelled copy
        sigma = dict(zip(src_traces, draw(st.permutations([f"t{i}" for i in range(nt)]))))
        pi = dict(zip(src_exprs, draw(st.permutations([f"f{i}" for i in range(ne)]))))
        tgt = Rep(sorted(sigma.values()), sorted(pi.values()),
                  {(sigma[t], pi[e]) for t, e in src.models}, {(pi[x], pi[y]) for x, y in src.leq})
        phi, tau = pi, {y: x for x, y in pi.items()}
        psi = {(sigma[t], t) for t in src_traces}
        if not draw(st.booleans()):
            return src, tgt, phi, tau, psi, True
        tgt_cells = [(t, e) for t in tgt.traces for e in tgt.exprs]
        order_cells = [(x, y) for x in tgt.exprs for y in tgt.exprs]
        tgt = tgt._replace(models=_flip(draw, set(tgt.models), tgt_cells),
                           leq=_flip(draw, set(tgt.leq), order_cells))
        phi, tau = _redirect(draw, phi, tgt.exprs), _redirect(draw, tau, src_exprs)
        psi = _flip(draw, psi, [(t, s) for t in tgt.traces for s in src_traces])
        return src, tgt, phi, tau, psi, False
    mt, me = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    tgt_traces, tgt_exprs = [f"t{i}" for i in range(mt)], [f"f{i}" for i in range(me)]
    tgt = Rep(tgt_traces, tgt_exprs,
              _subset(draw, [(t, e) for t in tgt_traces for e in tgt_exprs]),
              _subset(draw, [(x, y) for x in tgt_exprs for y in tgt_exprs]))
    phi = {x: draw(st.sampled_from(tgt_exprs)) for x in src_exprs}
    tau = {y: draw(st.sampled_from(src_exprs)) for y in tgt_exprs}
    psi = _subset(draw, [(t, s) for t in tgt_traces for s in src_traces])
    return src, tgt, phi, tau, psi, False


def _built(rep: Rep, name: str) -> Representation:
    traces, exprs = FiniteSet(f"{name}T", rep.traces), FiniteSet(f"{name}E", rep.exprs)
    return Representation(name, traces, exprs, Rel.from_pairs(traces, exprs, rep.models),
                          Rel.from_pairs(exprs, exprs, rep.leq))


def _verdicts(report):
    return [(v.law, v.ok, v.witness, v.note) for v in report.verdicts]


@settings(max_examples=200, deadline=None)
@given(cases())
def test_morphism_laws_match_the_pointwise_reference(case):
    src, tgt, phi, _, psi, intact = case
    a, b = _built(src, "src"), _built(tgt, "tgt")
    m = Morphism(a, b, FuncTable.from_map(a.exprs, b.exprs, phi), Rel.from_pairs(b.traces, a.traces, psi))
    want = morphism_laws(src, tgt, phi, psi)
    assert _verdicts(validate_morphism(m)) == want
    assert all(ok for _, ok, _, _ in want) or not intact


@settings(max_examples=200, deadline=None)
@given(cases())
def test_reduction_laws_match_the_pointwise_reference(case):
    src, tgt, phi, tau, psi, intact = case
    a, b = _built(src, "src"), _built(tgt, "tgt")
    r = Reduction(a, b, FuncTable.from_map(a.exprs, b.exprs, phi), FuncTable.from_map(b.exprs, a.exprs, tau),
                  Rel.from_pairs(b.traces, a.traces, psi))
    want = reduction_laws(src, tgt, phi, tau, psi)
    assert _verdicts(validate_reduction(r)) == want
    assert all(ok for _, ok, _, _ in want) or not intact
