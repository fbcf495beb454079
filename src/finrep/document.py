"""Line-oriented declaration format for finite carriers and the objects
built over them.

One declaration per line, names resolve top to bottom:

    set T = t1 t2
    set E = e1 "weird label"
    rel sat : T -> E = (t1, e1) (t2, e1)
    fun phi : E -> E = e1 -> e1, "weird label" -> e1
    preorder leq : E = (e1, e1) ("weird label", "weird label")
    representation R = traces T exprs E models sat leq leq
    morphism m : R -> R2 = phi phi psi back
    reduction r : R -> R2 = phi phi tau tau psi back
    closure c : R -> R2 = map down
    signature S = mul:2 one:0
    family F = builtin membership cap 4
    hor H = builtin mon depth 3
    probes P = max 2 samples 10 seed 0

Labels are bare words unless they contain a space, a tab, one of ( ) , " #,
or collide with the punctuation words, in which case they are quoted with
backslash escapes.  Relations and preorders are explicit pair lists.
`#` starts a comment.  A line is split into tokens by one regex.

One table, `_KINDS`, is the grammar.  It gives each kind its header words,
a body reader and a body printer.  A header word is a literal or a slot,
a label naming an earlier declaration of the slot's kind; the parser reads
the header's words and the printer writes the same words back, so printing
a parsed document and reparsing it gives the same document back.  Builtin
families and higher-order structures list each parameter with the kind of
value it takes (`FAMILY_BUILTINS`, `HOR_BUILTINS`), so a parameter the
builtin does not take, a value of the wrong kind or a missing signature
is refused where it is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import CarrierMismatch
from .fset import FiniteSet
from .functors import Signature
from .morphism import Morphism
from .reduction import Reduction
from .rel import FuncTable, Rel, is_preorder
from .represent import Representation


class DocumentError(Exception):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


_BARE = '[^ \t(),"#]+'  # space and tab are the only token separators
_PUNCT_WORDS = ("=", ":", "->")
# one match per token: a comment, punctuation, a quoted label with its
# closing quote (empty when missing) or a bare word
_TOKEN = re.compile(rf'[ \t]*(?:(#.*)|([(),])|"((?:[^"\\]|\\[\\"])*)("?)|({_BARE}))')
_ESCAPE = re.compile(r"\\(.)")
# an integer as the printer writes it back: ASCII digits, an optional minus
_INTEGER = re.compile("-?[0-9]+")


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    quoted: bool
    line: int
    column: int


def _lex_line(text: str, lineno: int) -> list[Token]:
    out = []
    for m in _TOKEN.finditer(text):
        comment, punct, quoted, closed, bare = m.groups()
        if quoted is not None:
            col = m.start(3)  # the opening quote's, counted from 1
            if not closed:
                if m.end() < len(text):  # stopped at a backslash before a bad character
                    raise DocumentError("bad escape", lineno, m.end() + 1)
                raise DocumentError("unterminated quote", lineno, col)
            out.append(Token(_ESCAPE.sub(r"\1", quoted), True, lineno, col))
        elif comment is None:
            word = punct or bare
            out.append(Token(word, False, lineno, m.end() - len(word) + 1))
        else:
            break
    return out


def quote_label(label: str) -> str:
    # the parser splits lines where str.splitlines does, so no label may hold such a break
    if len(f"x{label}x".splitlines()) != 1:
        raise ValueError(f"label {label!r} holds a line break and cannot be printed on one line")
    if re.fullmatch(_BARE, label) and label not in _PUNCT_WORDS:
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class Declaration:
    kind: str
    name: str
    obj: object
    pieces: list = field(default_factory=list)  # the header's slot labels, in order

    def printed(self) -> str:
        header, _, show = _KINDS[self.kind]
        labels = iter(self.pieces)
        words = [quote_label(next(labels)) if w in _SLOTS else w for w in header.split()]
        return " ".join([self.kind, quote_label(self.name), *words, show(self.obj)]).rstrip(" ")


@dataclass
class Document:
    decls: list[Declaration] = field(default_factory=list)
    by_name: dict = field(default_factory=dict)

    def declare(self, decl: Declaration, line: int | None = None):
        if decl.name in self.by_name:
            raise DocumentError(f"duplicate name {decl.name!r}", line)
        self.decls.append(decl)
        self.by_name[decl.name] = decl

    def lookup(self, kind: str, name: str, line: int | None = None, column: int | None = None):
        decl = self.by_name.get(name)
        if decl is None:
            raise DocumentError(f"unknown {kind} {name!r}", line, column)
        if decl.kind != kind:
            raise DocumentError(
                f"{name!r} is a {decl.kind}, expected a {kind}", line, column
            )
        return decl.obj

    def only(self, kind: str):
        found = [d for d in self.decls if d.kind == kind]
        if len(found) != 1:
            raise DocumentError(
                f"document declares {len(found)} {kind}s, name one explicitly"
            )
        return found[0]

    def __eq__(self, other):
        return isinstance(other, Document) and print_document(self) == print_document(other)


class _Cursor:
    def __init__(self, tokens: list[Token], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno

    @property
    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, what: str = "token") -> Token:
        if self.done:
            raise DocumentError(f"expected {what} at end of line", self.lineno)
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.take(f"{text!r}")
        if t.quoted or t.text != text:
            raise DocumentError(f"expected {text!r}, got {t.text!r}", t.line, t.column)
        return t

    def label(self, what: str = "name") -> Token:
        t = self.take(what)
        if not t.quoted and (t.text in _PUNCT_WORDS or t.text in "(),"):
            raise DocumentError(f"expected {what}, got {t.text!r}", t.line, t.column)
        return t

    def integer(self, what: str = "number") -> int:
        t = self.take(what)
        if not _INTEGER.fullmatch(t.text):
            raise DocumentError(f"expected {what}, got {t.text!r}", t.line, t.column)
        return int(t.text)

    def finish(self):
        if not self.done:
            t = self.tokens[self.pos]
            raise DocumentError(f"trailing {t.text!r}", t.line, t.column)


# ------------------------------------------------------------ header slots

def _slot(kind: str, what: str):
    """A header slot: a label naming an earlier declaration of `kind`."""

    def read(cur: _Cursor, doc: Document):
        t = cur.label(what)
        return t.text, doc.lookup(kind, t.text, t.line, t.column)

    return read


def _order(cur: _Cursor, doc: Document):
    """A representation's order: a relation or a preorder."""
    t = cur.take("relation or preorder name")
    decl = doc.by_name.get(t.text)
    if decl is None or decl.kind not in ("rel", "preorder"):
        raise DocumentError(f"unknown relation or preorder {t.text!r}", t.line, t.column)
    return t.text, decl.obj


_SLOTS = {
    "set": _slot("set", "set name"),
    "rel": _slot("rel", "relation name"),
    "fun": _slot("fun", "function name"),
    "representation": _slot("representation", "representation name"),
    "order": _order,
}


# ------------------------------------------------------------ bodies

def _element(cur: _Cursor, s: FiniteSet) -> int:
    t = cur.take("element")
    try:
        return s.index(t.text)
    except KeyError:
        raise DocumentError(
            f"{t.text!r} is not an element of set {s.name!r}", t.line, t.column
        ) from None


def _pair_list(cur: _Cursor, src: FiniteSet, tgt: FiniteSet) -> np.ndarray:
    m = np.zeros((len(src), len(tgt)), dtype=bool)
    while not cur.done:
        cur.expect("(")
        i = _element(cur, src)
        cur.expect(",")
        j = _element(cur, tgt)
        cur.expect(")")
        m[i, j] = True
    return m


def _pairs(r: Rel) -> str:
    return " ".join(
        f"({quote_label(r.src.elements[i])}, {quote_label(r.tgt.elements[j])})"
        for i, j in np.argwhere(r.m)
    )


def _elements(cur: _Cursor, doc: Document, name: str) -> FiniteSet:
    elements, seen = [], set()
    while not cur.done:
        t = cur.take("element")
        if t.text in seen:
            raise DocumentError(f"duplicate element {t.text!r}", t.line, t.column)
        seen.add(t.text)
        elements.append(t.text)
    return FiniteSet(name, elements)


def _mapping(cur: _Cursor, doc: Document, name: str, src: FiniteSet, tgt: FiniteSet) -> FuncTable:
    table = [-1] * len(src)
    first = True
    while not cur.done:
        if not first:
            cur.expect(",")
        first = False
        i = _element(cur, src)
        arrow = cur.expect("->")
        if table[i] >= 0:
            raise DocumentError(
                f"{src.elements[i]!r} mapped twice", arrow.line, arrow.column
            )
        table[i] = _element(cur, tgt)
    missing = [src.elements[i] for i, v in enumerate(table) if v < 0]
    if missing:
        raise DocumentError(
            f"function {name!r} leaves {missing[0]!r} unmapped", cur.lineno
        )
    return FuncTable(src, tgt, table)


def _show_mapping(f: FuncTable) -> str:
    return ", ".join(
        f"{quote_label(f.src.elements[i])} -> {quote_label(f.tgt.elements[int(j)])}"
        for i, j in enumerate(f.table)
    )


def _preorder(cur: _Cursor, doc: Document, name: str, s: FiniteSet) -> Rel:
    r = Rel(s, s, _pair_list(cur, s, s))
    bad = is_preorder(r).first_failure
    if bad is not None:
        i, j = bad.witness
        problem = (
            "is missing the reflexive pair" if bad.law == "reflexivity"
            else "is not transitive: missing"
        )
        raise DocumentError(f"preorder {name!r} {problem} ({i}, {j})", cur.lineno)
    return r


def _operations(cur: _Cursor, doc: Document, name: str) -> Signature:
    ops = {}
    while not cur.done:
        t = cur.take("op:arity")
        op, colon, arity = t.text.rpartition(":")
        if t.quoted or not colon or not op or not (arity.isascii() and arity.isdecimal()):
            raise DocumentError(f"expected op:arity, got {t.text!r}", t.line, t.column)
        if op in ops:
            raise DocumentError(f"duplicate operation {op!r}", t.line, t.column)
        ops[op] = int(arity)
    return Signature.of(ops)


# Each builtin's parameters and the value each takes: an integer, a
# declared signature, or one of a few words.  A parameter is a keyword of
# the builtin's builder, which gives every one a default but a signature.
FAMILY_BUILTINS = {
    "membership": {"cap": int},
    "singleton": {"cap": int},
    "union": {"cap": int, "outer": int},
    "term-unit": {"sig": Signature, "depth": int},
    "term-flatten": {"sig": Signature, "depth": int},
    "varlist": {"sig": Signature, "depth": int},
    "samevars": {"sig": Signature, "depth": int},
}
HOR_BUILTINS = {
    "mon": {"depth": int},
    "ka": {"size": int, "words": int, "mode": ("semantic", "axiomatic")},
}


def _parameter_key(cur: _Cursor) -> Token:
    """A parameter name: a bare word that is an identifier."""
    key = cur.take("parameter name")
    if key.quoted or not key.text.isidentifier():
        raise DocumentError(f"expected parameter name, got {key.text!r}", key.line, key.column)
    return key


def _builtin(builtins: dict, kind: str):
    """The body `builtin NAME (KEY VALUE)*`, read into a config dict; a
    signature's label is kept under `sig_name` for the printer."""

    def read(cur: _Cursor, doc: Document, name: str) -> dict:
        b = cur.take("builtin name")
        if b.text not in builtins:
            raise DocumentError(
                f"unknown builtin {b.text!r}, expected one of {', '.join(builtins)}",
                b.line,
                b.column,
            )
        config, params = {"builtin": b.text}, builtins[b.text]
        while not cur.done:
            key = _parameter_key(cur)
            if key.text not in params:
                raise DocumentError(
                    f"{b.text} {kind} does not take parameter {key.text!r}", key.line, key.column
                )
            if key.text in config:
                raise DocumentError(f"duplicate parameter {key.text!r}", key.line, key.column)
            value = params[key.text]
            if value is int:
                config[key.text] = cur.integer("parameter value")
                continue
            val = cur.take("parameter value")
            if value is Signature:
                config[key.text] = doc.lookup("signature", val.text, val.line, val.column)
                config["sig_name"] = val.text
            elif val.text in value:
                config[key.text] = val.text
            else:
                raise DocumentError(
                    f"{b.text} {key.text} must be {' or '.join(value)}, got {val.text!r}",
                    val.line,
                    val.column,
                )
        for key, value in params.items():
            if value is Signature and key not in config:
                raise DocumentError(f"{b.text} {kind} needs {key} <signature>", b.line, b.column)
        return config

    return read


def _show_config(config: dict) -> str:
    words = [config["builtin"]]
    for key, val in config.items():
        if key not in ("builtin", "sig_name"):
            words += [key, quote_label(config["sig_name"]) if key == "sig" else str(val)]
    return " ".join(words)


# each probe parameter and the least value it takes, a probes line's and
# the matching cli flag's alike
PROBE_FLOORS = {"max": 1, "samples": 1, "seed": 0}


def _probe_config(cur: _Cursor, doc: Document, name: str) -> dict:
    config = {}
    while not cur.done:
        key = _parameter_key(cur)
        if key.text not in PROBE_FLOORS:
            raise DocumentError(
                f"unknown probe parameter {key.text!r}", key.line, key.column
            )
        if key.text in config:
            raise DocumentError(f"duplicate parameter {key.text!r}", key.line, key.column)
        value = config[key.text] = cur.integer(f"{key.text} value")
        floor = PROBE_FLOORS[key.text]
        if value < floor:
            raise DocumentError(f"probe {key.text} must be at least {floor}", key.line, key.column)
    return config


def _nothing(obj) -> str:
    return ""


# The grammar: kind -> (header words, body reader, body printer).  A header
# word is a literal or a key of _SLOTS; the reader takes the cursor, the
# document, the declaration's name and the slots' objects in header order.
_KINDS = {
    "set": ("=", _elements, lambda s: " ".join(map(quote_label, s.elements))),
    "rel": (
        ": set -> set =",
        lambda cur, doc, name, src, tgt: Rel(src, tgt, _pair_list(cur, src, tgt)),
        _pairs,
    ),
    "fun": (": set -> set =", _mapping, _show_mapping),
    "preorder": (": set =", _preorder, _pairs),
    "representation": (
        "= traces set exprs set models rel leq order",
        lambda cur, doc, name, *objs: Representation(name, *objs),
        _nothing,
    ),
    "morphism": (
        ": representation -> representation = phi fun psi rel",
        lambda cur, doc, name, *objs: Morphism(*objs),
        _nothing,
    ),
    "reduction": (
        ": representation -> representation = phi fun tau fun psi rel",
        lambda cur, doc, name, *objs: Reduction(*objs),
        _nothing,
    ),
    "closure": (
        ": representation -> representation = map fun",
        lambda cur, doc, name, *objs: objs,
        _nothing,
    ),
    "signature": ("=", _operations, lambda sig: " ".join(f"{op}:{k}" for op, k in sig.ops)),
    "family": ("= builtin", _builtin(FAMILY_BUILTINS, "family"), _show_config),
    "hor": ("= builtin", _builtin(HOR_BUILTINS, "hor"), _show_config),
    "probes": ("=", _probe_config, lambda cfg: " ".join(f"{k} {v}" for k, v in cfg.items())),
}


def parse_document(text: str) -> Document:
    doc = Document()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.quoted or head.text not in _KINDS:
            raise DocumentError(
                f"unknown declaration kind {head.text!r}", head.line, head.column
            )
        header, read, _ = _KINDS[head.text]
        cur = _Cursor(tokens[1:], lineno)
        name = cur.label("declaration name").text
        pieces, objs = [], []
        for word in header.split():
            if word in _SLOTS:
                label, obj = _SLOTS[word](cur, doc)
                pieces.append(label)
                objs.append(obj)
            else:
                cur.expect(word)
        try:
            obj = read(cur, doc, name, *objs)
        except CarrierMismatch as e:
            raise DocumentError(str(e), lineno) from None
        cur.finish()
        doc.declare(Declaration(head.text, name, obj, pieces), lineno)
    return doc


def print_document(doc: Document) -> str:
    return "\n".join(d.printed() for d in doc.decls) + "\n"
