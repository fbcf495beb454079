"""Parse results and refusals pinned document by document.

Each case of `golden_documents.json` is a document text and either the
document `print_document` prints for it or the type and message of the
error it raises; a case with `only` also asks the parsed document for its
only declaration of that kind and pins that declaration's line.  The cases
are the corpus, the kitchen-sink document of `test_document.py`, documents
that reach each way `parse_document` and `Document` refuse a document, and
lexer edge cases.  Regenerate the data with
`python3 tests/test_golden_documents.py` only for a change that means to
alter what a document parses to, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "golden_documents.json"

if __name__ == "__main__":  # run as a script, the parametrize below already imports finrep
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))

_REP = (
    "set T = t\nset E = e\n"
    "rel sat : T -> E = (t, e)\n"
    "preorder ord : E = (e, e)\n"
    "representation R = traces T exprs E models sat leq ord\n"
)
_TWO_REPS = _REP + (
    "set F = f\n"
    "rel sat2 : T -> F = (t, f)\n"
    "preorder ord2 : F = (f, f)\n"
    "representation R2 = traces T exprs F models sat2 leq ord2\n"
    "fun same : E -> E = e -> e\n"
    "fun there : E -> F = e -> f\n"
    "fun back : F -> E = f -> e\n"
    "rel keep : T -> T = (t, t)\n"
)

# (id, text) or (id, text, kind asked of Document.only)
DOCUMENTS = [
    # lexer edge cases
    ("lex-hash-inside-quotes", 'set A = "a#b" c # a comment\n'),
    ("lex-tabs", "set\tA\t=\ta\t\tb\t\n"),
    ("lex-unicode-spaces-in-bare-labels", "set A = a\u00a0b c\u3000d \u00a0 \u3000x\n"),
    ("lex-empty-quoted-label", 'set A = "" b\n'),
    ("lex-escapes", 'set A = "say \\"hi\\"" "back\\\\slash" bare\\slash "a -> b" "->"\n'),
    ("lex-quote-right-after-bare", 'set A = a"b c"\n'),
    ("lex-punctuation-glued", "set A = a b\nrel r : A -> A =(a,b)(b,a)\n"),
    ("lex-comments-and-blank-lines", "\n# heading\n   \nset A = a  # trailing\n\t# indented\n"),
    ("lex-bad-escape-mid-line", 'set A = "a\\x" b\n'),
    ("lex-bad-escape-at-end", 'set A = "a\\'),
    ("lex-bad-escape-after-escapes", 'set A = b "\\\\\\"\\n"\n'),
    ("lex-unterminated-quote", 'set A = "open'),
    ("lex-unterminated-after-escaped-quote", 'set A = b "ab\\"'),
    ("lex-unterminated-hash", 'set A = "a # b'),
    # declarations that parse
    ("empty-bodies", "set Z = \nrel r : Z -> Z = \npreorder p : Z = \nfun f : Z -> Z =\n"),
    ("representation-with-rel-order", (
        "set T = t\nset E = e\nrel sat : T -> E = (t, e)\nrel lo : E -> E = (e, e)\n"
        "representation R = traces T exprs E models sat leq lo\n")),
    ("morphism-reduction-closure", _TWO_REPS + (
        "morphism m : R -> R2 = phi there psi keep\n"
        "reduction r : R -> R2 = phi there tau back psi keep\n"
        "closure c : R -> R = map same\n")),
    ("signature-and-families", (
        "signature S = mul:2 one:0 f:1\n"
        "signature \"odd name\" = g:3\n"
        "family a = builtin membership\n"
        "family b = builtin singleton cap 2\n"
        "family c = builtin union cap 2 outer 3\n"
        "family d = builtin term-unit sig S depth 2\n"
        "family e = builtin varlist depth 1 sig \"odd name\"\n"
        "family f = builtin samevars sig S\n"
        "family g = builtin term-flatten sig S depth 3\n")),
    ("hor-builtins", (
        "hor m = builtin mon depth 2\nhor k = builtin ka size 3 words 2 mode axiomatic\n"
        "hor n = builtin ka\n")),
    ("probes", "probes P = seed 4 max 2\nprobes Q = \n"),
    ("only-one", "set A = a\nset B = b\nrel r : A -> B = (a, b)\n", "rel"),
    # refusals of the lexer-independent kind
    ("unknown-kind", "frob X = 1\n"),
    ("quoted-kind", '"set" A = a\n'),
    ("no-name", "set\n"),
    ("punctuation-name", "set = a\n"),
    ("duplicate-name", "set A = a\nset A = b\n"),
    ("unknown-set", "rel r : X -> X =\n"),
    ("kind-mismatch", "set A = a\nrel r : A -> A =\nrel q : r -> A =\n"),
    ("only-none", "set A = a\n", "representation"),
    ("only-two", "set A = a\nset B = b\n", "set"),
    ("expected-at-end-of-line", "set A = a\nrel r : A ->\n"),
    ("expected-colon-at-end", "rel r\n"),
    ("expected-word", "set A : a\n"),
    ("expected-quoted-word", 'set A = a\nrel r ":" A -> A =\n'),
    ("expected-label-got-punctuation", "set A = a\nrel r : -> A =\n"),
    ("expected-label-got-paren", "set A = a\nfun f : ( -> A =\n"),
    ("trailing", _REP.replace("leq ord", "leq ord extra")),
    ("not-an-element", "set A = a\nrel r : A -> A = (a, nope)\n"),
    ("pair-missing-comma", "set A = a\nrel r : A -> A = (a a)\n"),
    ("pair-unclosed", "set A = a\nrel r : A -> A = (a, a\n"),
    ("duplicate-element", "set A = a b a\n"),
    ("mapped-twice", "set A = a\nfun f : A -> A = a -> a, a -> a\n"),
    ("fun-missing-comma", "set A = a b\nfun f : A -> A = a -> a b -> b\n"),
    ("unmapped", "set A = a b\nfun f : A -> A = a -> a\n"),
    ("preorder-not-reflexive", "set A = a b\npreorder p : A = (a, a)\n"),
    ("preorder-not-transitive", "set A = a b c\npreorder p : A = (a, a) (b, b) (c, c) (a, b) (b, c)\n"),
    ("unknown-order", _REP.replace("leq ord", "leq ghost")),
    ("order-is-a-set", _REP.replace("leq ord", "leq E")),
    ("representation-carrier-mismatch", (
        "set T = t\nset E = e\nset F = f\nrel sat : T -> E = (t, e)\npreorder po : F = (f, f)\n"
        "representation R = traces T exprs E models sat leq po\n")),
    ("morphism-carrier-mismatch", _TWO_REPS + "morphism m : R -> R2 = phi same psi keep\n"),
    ("reduction-carrier-mismatch", _TWO_REPS + "reduction r : R -> R2 = phi there tau same psi keep\n"),
    ("closure-unknown-map", _TWO_REPS + "closure c : R -> R2 = map keep\n"),
    ("signature-quoted-op", 'signature S = "mul:2"\n'),
    ("signature-no-colon", "signature S = mul\n"),
    ("signature-bad-arity", "signature S = mul:x\n"),
    ("signature-no-op", "signature S = :2\n"),
    ("signature-duplicate-op", "signature S = mul:2 mul:1\n"),
    # an arity is ASCII digits, like every other integer of the format
    ("signature-arabic-indic-arity", "signature S = f:\u0662 one:0\n"),
    ("signature-leading-zero-arity", "signature S = f:02 one:0\n"),
    ("unknown-builtin", "hor H = builtin frob\n"),
    ("builtin-missing", "family F = membership\n"),
    ("builtin-name-missing", "family F = builtin\n"),
    ("parameter-name-quoted", 'family F = builtin membership "cap" 3\n'),
    ("parameter-name-not-a-word", "family F = builtin membership 3 3\n"),
    ("parameter-duplicate", "family F = builtin membership cap 3 cap 4\n"),
    ("parameter-value-missing", "family F = builtin membership cap\n"),
    ("parameter-unknown-signature", "family F = builtin varlist sig S\n"),
    ("parameter-sig-missing", "signature S = mul:2\nfamily F = builtin term-unit depth 2\n"),
    ("probe-unknown-parameter", "probes P = depth 3\n"),
    ("probe-parameter-name-quoted", 'probes P = "max" 2\n'),
    ("probe-duplicate-parameter", "probes P = max 2 max 3\n"),
    ("probe-not-a-number", "probes P = max x\n"),
    ("probe-superscript", "probes P = samples \u00b2\n"),
    ("probe-below-one", "probes P = seed 5 samples 0\n"),
    ("probe-seed-below-zero", "probes P = max 2 seed -1\n"),
    # integers are ASCII digits with an optional minus, as printed back
    ("parameter-negative", "family F = builtin membership cap -4\n"),
    ("parameter-plus-sign", "family F = builtin membership cap +3\n"),
    ("parameter-underscore", "family F = builtin membership cap 1_0\n"),
    ("parameter-arabic-indic-digit", "family F = builtin membership cap \u0663\n"),
    ("parameter-trailing-nbsp", "signature S = mul:2\nfamily F = builtin term-unit sig S depth 2\u00a0\n"),
    ("parameter-leading-ideographic-space", "hor H = builtin mon depth \u30002\n"),
]


def _texts():
    texts = {f"corpus/{p.name}": (p.read_text(encoding="utf-8"), None)
             for p in sorted((ROOT / "corpus").glob("*.doc"))}
    from test_document import KITCHEN_SINK

    texts["kitchen-sink"] = (KITCHEN_SINK, None)
    for case in DOCUMENTS:
        texts[case[0]] = (case[1], case[2] if len(case) > 2 else None)
    return texts


def outcome(text, only=None):
    from finrep.document import parse_document, print_document

    try:
        doc = parse_document(text)
        printed = print_document(doc)
        if only is not None:
            printed = doc.only(only).printed()
    except Exception as e:
        return {"error": [type(e).__name__, str(e)]}
    return {"printed": printed}


def _record(text, only):
    case = {"text": text}
    if only is not None:
        case["only"] = only
    return {**case, **outcome(text, only)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_document_is_recorded(golden):
    texts = _texts()
    assert sorted(golden) == sorted(texts)
    for key, (text, only) in texts.items():
        assert (golden[key]["text"], golden[key].get("only")) == (text, only), key


@pytest.mark.parametrize("key", sorted(_texts()))
def test_parse_result_or_refusal(golden, key):
    case = golden[key]
    want = {k: v for k, v in case.items() if k in ("printed", "error")}
    assert outcome(case["text"], case.get("only")) == want


if __name__ == "__main__":
    data = {key: _record(text, only) for key, (text, only) in _texts().items()}
    DATA.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
