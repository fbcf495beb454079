import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finrep.document import (
    DocumentError,
    Token,
    _lex_line,
    parse_document,
    print_document,
    quote_label,
)
from finrep.fset import FiniteSet

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

KITCHEN_SINK = """\
# every declaration kind in one document
set T = t1 t2
set E = e1 "weird label" "a -> b"
rel sat : T -> E = (t1, e1) (t2, "weird label")
fun down : E -> E = e1 -> e1, "weird label" -> e1, "a -> b" -> e1
preorder ord : E = (e1, e1) ("weird label", "weird label") ("weird label", e1) ("a -> b", "a -> b")
representation R = traces T exprs E models sat leq ord
representation R2 = traces T exprs E models sat leq ord
rel keep : T -> T = (t1, t1) (t2, t2)
morphism m : R -> R2 = phi down psi keep
reduction r : R -> R2 = phi down tau down psi keep
closure c : R -> R2 = map down
signature S = mul:2 one:0
family F = builtin term-flatten sig S depth 2
hor H = builtin ka size 3 words 2 mode semantic
probes P = max 2 samples 10 seed 0
"""


def test_round_trip_identity():
    doc = parse_document(KITCHEN_SINK)
    printed = print_document(doc)
    again = parse_document(printed)
    assert doc == again
    assert print_document(again) == printed


def test_two_set_one_rel_round_trip():
    doc = parse_document("set A = a b\nset B = c\nrel r : A -> B = (a, c)\n")
    assert parse_document(print_document(doc)) == doc
    assert [d.kind for d in doc.decls] == ["set", "set", "rel"]


def test_parsed_objects_are_wired():
    doc = parse_document(KITCHEN_SINK)
    rep = doc.lookup("representation", "R")
    assert rep.traces is doc.lookup("set", "T")
    assert rep.models is doc.lookup("rel", "sat")
    m = doc.lookup("morphism", "m")
    assert m.source is rep
    sig = doc.lookup("signature", "S")
    assert dict(sig.ops)["mul"] == 2
    fam = doc.lookup("family", "F")
    assert fam["builtin"] == "term-flatten" and fam["sig"] is sig and fam["depth"] == 2
    hor = doc.lookup("hor", "H")
    assert hor == {"builtin": "ka", "size": 3, "words": 2, "mode": "semantic"}
    probes = doc.lookup("probes", "P")
    assert probes == {"max": 2, "samples": 10, "seed": 0}


def test_quoting_rules():
    assert quote_label("plain_word.x*") == "plain_word.x*"
    assert quote_label("has space") == '"has space"'
    assert quote_label("a,b") == '"a,b"'
    assert quote_label("say \"hi\"") == '"say \\"hi\\""'
    assert quote_label("back\\slash") == "back\\slash"  # bare words keep backslashes
    assert quote_label("->") == '"->"'
    assert quote_label("") == '""'


def test_unicode_spaces_are_label_characters():
    # only space and tab separate tokens; other Unicode spaces stay inside
    # a bare label, in the lexer and in quote_label alike
    doc = parse_document("set A = a\u00a0b c\u3000d\n")
    assert doc.lookup("set", "A").elements == ("a\u00a0b", "c\u3000d")
    assert quote_label("c\u3000d") == "c\u3000d"
    assert parse_document(print_document(doc)) == doc


def _one_line(label):
    """Whether a label fits on one document line: `parse_document` splits
    lines where `str.splitlines` does, so no label can hold a line break."""
    return len(f"x{label}x".splitlines()) == 1


@given(st.lists(st.text().filter(_one_line), min_size=1, max_size=4, unique=True))
@example(["\x1f"])  # a trailing non-space whitespace is not trimmed off the line
@example(["e\u00a0", "c\u3000d"])
def test_every_one_line_label_round_trips(labels):
    text = "set A = " + " ".join(quote_label(lab) for lab in labels) + "\n"
    doc = parse_document(text)
    assert doc.lookup("set", "A").elements == tuple(labels)
    assert print_document(doc) == text


# every break that str.splitlines splits a line at
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@given(st.tuples(st.text(), st.sampled_from(LINE_BREAKS), st.text()).map("".join))
@example("a\x85b")
def test_every_label_off_one_line_is_refused_by_the_printer(label):
    assert not _one_line(label)
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        quote_label(label)
    doc = parse_document("set A = c\n")
    doc.decls[0].obj = FiniteSet("A", [label, "c"])
    with pytest.raises(ValueError, match="line break"):
        print_document(doc)


def test_quoted_label_escapes_round_trip():
    text = 'set S = "say \\"hi\\"" "back\\\\slash"\n'
    doc = parse_document(text)
    assert doc.lookup("set", "S").elements == ('say "hi"', "back\\slash")
    assert parse_document(print_document(doc)) == doc


def test_dangling_reference_names_the_name():
    with pytest.raises(DocumentError, match="unknown set 'X'"):
        parse_document("rel r : X -> X = ")


def test_kind_mismatch_reported():
    with pytest.raises(DocumentError, match="'r' is a rel, expected a set"):
        parse_document("set A = a\nrel r : A -> A = \nrel q : r -> A = ")


def test_error_positions():
    try:
        parse_document("set A = a\nrel r : A -> A = (a, nope)")
    except DocumentError as e:
        assert e.line == 2 and e.column is not None
    else:
        pytest.fail("no error")
    try:
        parse_document('set A = "open')
    except DocumentError as e:
        assert e.line == 1
    else:
        pytest.fail("no error")


def test_duplicate_names_and_elements():
    with pytest.raises(DocumentError, match="duplicate name"):
        parse_document("set A = a\nset A = b")
    with pytest.raises(DocumentError, match="duplicate element"):
        parse_document("set A = a a")
    with pytest.raises(DocumentError) as err:
        parse_document("set A = a a")
    assert str(err.value) == "line 1, column 11: duplicate element 'a'"
    wide = " ".join(f"e{i}" for i in range(1500))
    with pytest.raises(DocumentError) as err:
        parse_document(f"set A = {wide} e7")
    assert str(err.value) == f"line 1, column {len(wide) + 10}: duplicate element 'e7'"
    with pytest.raises(DocumentError, match="mapped twice"):
        parse_document("set A = a\nfun f : A -> A = a -> a, a -> a")


def test_preorder_declarations_validated():
    with pytest.raises(DocumentError, match="reflexive"):
        parse_document("set A = a b\npreorder p : A = (a, a)")
    with pytest.raises(DocumentError, match="not transitive: missing \\(a, c\\)"):
        parse_document(
            "set A = a b c\n"
            "preorder p : A = (a, a) (b, b) (c, c) (a, b) (b, c)"
        )
    # two violations of one kind: the row-major first is the witness
    with pytest.raises(DocumentError, match=re.escape("missing the reflexive pair (b, b)")):
        parse_document("set A = a b c d\npreorder p : A = (d, a) (c, c) (a, a)")
    # gaps (c, d) and (b, e): row-major gives (b, e), column-major would give (c, d)
    with pytest.raises(DocumentError, match=re.escape("not transitive: missing (b, e)")):
        parse_document(
            "set A = a b c d e f\n"
            "preorder p : A = (a, a) (b, b) (c, c) (d, d) (e, e) (f, f)"
            " (c, a) (a, d) (b, f) (f, e)"
        )


def test_function_totality_required():
    with pytest.raises(DocumentError, match="leaves 'b' unmapped"):
        parse_document("set A = a b\nfun f : A -> A = a -> a")


def test_carrier_mismatch_is_document_error():
    text = (
        "set T = t\nset E = e\nset F = f\n"
        "rel sat : T -> E = (t, e)\n"
        "preorder po : F = (f, f)\n"
        "representation R = traces T exprs E models sat leq po\n"
    )
    with pytest.raises(DocumentError, match="square on exprs"):
        parse_document(text)


def test_unknown_builtin_and_parameters():
    with pytest.raises(DocumentError, match="unknown builtin 'frob'"):
        parse_document("hor H = builtin frob")
    with pytest.raises(DocumentError, match="unknown probe parameter"):
        parse_document("probes P = depth 3")


def test_empty_bodies_round_trip():
    text = "set Z = \nrel r : Z -> Z = \npreorder p : Z = \nfun f : Z -> Z =\n"
    doc = parse_document(text)
    assert len(doc.lookup("set", "Z")) == 0
    assert parse_document(print_document(doc)) == doc


def test_comments_and_blank_lines_ignored():
    doc = parse_document("\n# heading\nset A = a  # trailing\n\n")
    assert doc.lookup("set", "A").elements == ("a",)


def test_corpus_documents_parse_and_round_trip():
    for path in sorted(CORPUS.glob("*.doc")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        assert parse_document(print_document(doc)) == doc, path.name


_BARE = re.compile('[^ \t(),"#]+')


def reference_lex_line(text: str, lineno: int) -> list[Token]:
    """A character loop over one line, the reference for the lexer's regex."""
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c in "(),":
            out.append(Token(c, False, lineno, col))
            i += 1
            continue
        if c == '"':
            chars = []
            i += 1
            while True:
                if i >= len(text):
                    raise DocumentError("unterminated quote", lineno, col)
                c = text[i]
                if c == "\\":
                    if i + 1 >= len(text) or text[i + 1] not in '\\"':
                        raise DocumentError("bad escape", lineno, i + 1)
                    chars.append(text[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    chars.append(c)
                    i += 1
            out.append(Token("".join(chars), True, lineno, col))
            continue
        m = _BARE.match(text, i)
        out.append(Token(m.group(), False, lineno, col))
        i = m.end()
    return out


def _lexed(lex, line):
    try:
        return lex(line, 7)
    except DocumentError as e:
        return str(e)


@given(st.text(alphabet='ab "\\#(),\t\u00a0\u3000', max_size=40))
@example('a "b\\x" c')
@example('"\\')
@example('"a\\"')
@example('x"y"z # "')
def test_lexer_matches_the_character_loop(line):
    assert _lexed(_lex_line, line) == _lexed(reference_lex_line, line)


def test_a_token_has_slots_and_no_dict():
    # a long pair line holds every one of its tokens at once
    token = _lex_line("a (b, c)", 1)[0]
    assert token == Token("a", False, 1, 1)
    assert not hasattr(token, "__dict__")
    with pytest.raises(AttributeError):
        token.text = "b"


@given(st.text().filter(lambda name: _one_line(name) and name != "F"))  # F names the family
@example("3")
@example("-3")
@example("\u00b2")
@example("\u0663")
@example("->")
def test_every_one_line_signature_name_round_trips_through_a_family(name):
    text = (
        f"signature {quote_label(name)} = mul:2\n"
        f"family F = builtin samevars sig {quote_label(name)} depth 2\n"
    )
    doc = parse_document(text)
    assert doc.lookup("family", "F")["sig"] is doc.lookup("signature", name)
    assert print_document(doc) == text


def test_a_quoted_builtin_word_prints_bare():
    doc = parse_document('hor H = builtin ka mode "axiomatic"\n')
    assert print_document(doc) == "hor H = builtin ka mode axiomatic\n"
