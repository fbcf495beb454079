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
`#` starts a comment.  Printing a parsed document and reparsing it gives
the same document back.
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


_SPACE = " \t"  # the only token separators, for the lexer, _BARE and quote_label
_BARE = re.compile(f'[^{_SPACE}(),"#]+')
_PUNCT_WORDS = ("=", ":", "->")

FAMILY_BUILTINS = (
    "membership",
    "singleton",
    "union",
    "term-unit",
    "term-flatten",
    "varlist",
    "samevars",
)
HOR_BUILTINS = ("mon", "ka")


@dataclass(frozen=True)
class Token:
    text: str
    quoted: bool
    line: int
    column: int


def _lex_line(text: str, lineno: int) -> list[Token]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in _SPACE:
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


def quote_label(label: str) -> str:
    # the parser splits lines where str.splitlines does, so no label may hold such a break
    if len(f"x{label}x".splitlines()) != 1:
        raise ValueError(f"label {label!r} holds a line break and cannot be printed on one line")
    if label and not any(c in label for c in _SPACE + '(),"#') and label not in _PUNCT_WORDS:
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class Declaration:
    kind: str
    name: str
    obj: object
    pieces: dict = field(default_factory=dict)

    def printed(self) -> str:
        body = _PRINTERS[self.kind](self)
        return f"{self.kind} {quote_label(self.name)} {body}"


@dataclass
class Document:
    decls: list[Declaration] = field(default_factory=list)
    by_name: dict = field(default_factory=dict)

    def declare(self, decl: Declaration, line: int | None = None):
        if decl.name in self.by_name:
            raise DocumentError(f"duplicate name {decl.name!r}", line)
        self.decls.append(decl)
        self.by_name[decl.name] = decl

    def lookup(self, kind: str, name: str, line: int | None = None):
        decl = self.by_name.get(name)
        if decl is None:
            raise DocumentError(f"unknown {kind} {name!r}", line)
        if decl.kind != kind:
            raise DocumentError(
                f"{name!r} is a {decl.kind}, expected a {kind}", line
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

    def label(self, what: str = "name") -> str:
        t = self.take(what)
        if not t.quoted and (t.text in _PUNCT_WORDS or t.text in "(),"):
            raise DocumentError(f"expected {what}, got {t.text!r}", t.line, t.column)
        return t.text

    def integer(self, what: str = "number") -> int:
        t = self.take(what)
        try:
            return int(t.text)
        except ValueError:
            raise DocumentError(f"expected {what}, got {t.text!r}", t.line, t.column) from None

    def finish(self):
        if not self.done:
            t = self.tokens[self.pos]
            raise DocumentError(f"trailing {t.text!r}", t.line, t.column)


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


def _parse_set(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    elements, seen = [], set()
    while not cur.done:
        t = cur.take("element")
        if t.text in seen:
            raise DocumentError(f"duplicate element {t.text!r}", t.line, t.column)
        seen.add(t.text)
        elements.append(t.text)
    return Declaration("set", name, FiniteSet(name, elements))


def _parse_rel(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    src = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("->")
    tgt = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("=")
    return Declaration("rel", name, Rel(src, tgt, _pair_list(cur, src, tgt)))


def _parse_fun(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    src = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("->")
    tgt = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("=")
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
    return Declaration("fun", name, FuncTable(src, tgt, table))


def _parse_preorder(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    s = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("=")
    r = Rel(s, s, _pair_list(cur, s, s))
    bad = is_preorder(r).first_failure
    if bad is not None:
        i, j = bad.witness
        problem = (
            "is missing the reflexive pair" if bad.law == "reflexivity"
            else "is not transitive: missing"
        )
        raise DocumentError(f"preorder {name!r} {problem} ({i}, {j})", cur.lineno)
    return Declaration("preorder", name, r)


def _parse_representation(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    cur.expect("traces")
    traces = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("exprs")
    exprs = doc.lookup("set", cur.label("set name"), cur.lineno)
    cur.expect("models")
    models_name = cur.label("relation name")
    models = doc.lookup("rel", models_name, cur.lineno)
    cur.expect("leq")
    t = cur.take("relation or preorder name")
    decl = doc.by_name.get(t.text)
    if decl is None or decl.kind not in ("rel", "preorder"):
        raise DocumentError(
            f"unknown relation or preorder {t.text!r}", t.line, t.column
        )
    try:
        rep = Representation(name, traces, exprs, models, decl.obj)
    except CarrierMismatch as e:
        raise DocumentError(str(e), cur.lineno) from None
    return Declaration(
        "representation",
        name,
        rep,
        pieces={"models_name": models_name, "leq_name": t.text},
    )


def _rep_ref(cur: _Cursor, doc: Document):
    name = cur.label("representation name")
    return name, doc.lookup("representation", name, cur.lineno)


def _parse_morphism(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    src_name, source = _rep_ref(cur, doc)
    cur.expect("->")
    tgt_name, target = _rep_ref(cur, doc)
    cur.expect("=")
    cur.expect("phi")
    phi_name = cur.label("function name")
    phi = doc.lookup("fun", phi_name, cur.lineno)
    cur.expect("psi")
    psi_name = cur.label("relation name")
    psi = doc.lookup("rel", psi_name, cur.lineno)
    try:
        m = Morphism(source, target, phi, psi)
    except CarrierMismatch as e:
        raise DocumentError(str(e), cur.lineno) from None
    pieces = {"source": src_name, "target": tgt_name, "phi": phi_name, "psi": psi_name}
    return Declaration("morphism", name, m, pieces=pieces)


def _parse_reduction(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    src_name, source = _rep_ref(cur, doc)
    cur.expect("->")
    tgt_name, target = _rep_ref(cur, doc)
    cur.expect("=")
    cur.expect("phi")
    phi_name = cur.label("function name")
    phi = doc.lookup("fun", phi_name, cur.lineno)
    cur.expect("tau")
    tau_name = cur.label("function name")
    tau = doc.lookup("fun", tau_name, cur.lineno)
    cur.expect("psi")
    psi_name = cur.label("relation name")
    psi = doc.lookup("rel", psi_name, cur.lineno)
    try:
        r = Reduction(source, target, phi, tau, psi)
    except CarrierMismatch as e:
        raise DocumentError(str(e), cur.lineno) from None
    pieces = {
        "source": src_name,
        "target": tgt_name,
        "phi": phi_name,
        "tau": tau_name,
        "psi": psi_name,
    }
    return Declaration("reduction", name, r, pieces=pieces)


def _parse_closure(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect(":")
    src_name, coarse = _rep_ref(cur, doc)
    cur.expect("->")
    tgt_name, fine = _rep_ref(cur, doc)
    cur.expect("=")
    cur.expect("map")
    map_name = cur.label("function name")
    down = doc.lookup("fun", map_name, cur.lineno)
    pieces = {"source": src_name, "target": tgt_name, "map": map_name}
    return Declaration("closure", name, (coarse, fine, down), pieces=pieces)


def _parse_signature(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    ops = {}
    while not cur.done:
        t = cur.take("op:arity")
        if t.quoted or ":" not in t.text:
            raise DocumentError(
                f"expected op:arity, got {t.text!r}", t.line, t.column
            )
        op, _, arity = t.text.rpartition(":")
        if not arity.isdigit() or not op:
            raise DocumentError(
                f"expected op:arity, got {t.text!r}", t.line, t.column
            )
        if op in ops:
            raise DocumentError(f"duplicate operation {op!r}", t.line, t.column)
        ops[op] = int(arity)
    return Declaration("signature", name, Signature.of(ops))


def _config(cur: _Cursor, doc: Document, kind: str, builtins) -> dict:
    cur.expect("builtin")
    t = cur.take("builtin name")
    if t.text not in builtins:
        raise DocumentError(
            f"unknown builtin {t.text!r}, expected one of {', '.join(builtins)}",
            t.line,
            t.column,
        )
    config = {"builtin": t.text}
    while not cur.done:
        key = cur.take("parameter name")
        if key.quoted or not key.text.isidentifier():
            raise DocumentError(
                f"expected parameter name, got {key.text!r}", key.line, key.column
            )
        if key.text in config:
            raise DocumentError(f"duplicate parameter {key.text!r}", key.line, key.column)
        val = cur.take("parameter value")
        if val.text.lstrip("-").isdigit():
            config[key.text] = int(val.text)
        elif key.text == "sig":
            config[key.text] = doc.lookup("signature", val.text, val.line)
            config["sig_name"] = val.text
        else:
            config[key.text] = val.text
    return config


def _parse_family(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    return Declaration("family", name, _config(cur, doc, "family", FAMILY_BUILTINS))


def _parse_hor(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    return Declaration("hor", name, _config(cur, doc, "hor", HOR_BUILTINS))


def _parse_probes(cur: _Cursor, doc: Document, name: str) -> Declaration:
    cur.expect("=")
    config = {}
    while not cur.done:
        key = cur.take("parameter name")
        if key.text not in ("max", "samples", "seed"):
            raise DocumentError(
                f"unknown probe parameter {key.text!r}", key.line, key.column
            )
        if key.text in config:
            raise DocumentError(f"duplicate parameter {key.text!r}", key.line, key.column)
        value = config[key.text] = cur.integer(f"{key.text} value")
        if key.text != "seed" and value < 1:
            raise DocumentError(f"probe {key.text} must be at least 1", key.line, key.column)
    return Declaration("probes", name, config)


_PARSERS = {
    "set": _parse_set,
    "rel": _parse_rel,
    "fun": _parse_fun,
    "preorder": _parse_preorder,
    "representation": _parse_representation,
    "morphism": _parse_morphism,
    "reduction": _parse_reduction,
    "closure": _parse_closure,
    "signature": _parse_signature,
    "family": _parse_family,
    "hor": _parse_hor,
    "probes": _parse_probes,
}


def parse_document(text: str) -> Document:
    doc = Document()
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, lineno)
        if not tokens:
            continue
        head = tokens[0]
        parser = _PARSERS.get(head.text)
        if parser is None or head.quoted:
            raise DocumentError(
                f"unknown declaration kind {head.text!r}", head.line, head.column
            )
        cur = _Cursor(tokens[1:], lineno)
        name = cur.label("declaration name")
        decl = parser(cur, doc, name)
        cur.finish()
        doc.declare(decl, lineno)
    return doc


def _pairs(r: Rel) -> str:
    return " ".join(
        f"({quote_label(r.src.elements[i])}, {quote_label(r.tgt.elements[j])})"
        for i, j in np.argwhere(r.m)
    )


def _print_set(d: Declaration) -> str:
    s: FiniteSet = d.obj
    body = " ".join(quote_label(x) for x in s.elements)
    return ("= " + body).rstrip(" ")


def _print_rel(d: Declaration) -> str:
    r: Rel = d.obj
    body = _pairs(r)
    return f": {quote_label(r.src.name)} -> {quote_label(r.tgt.name)} = {body}".rstrip(" ")


def _print_fun(d: Declaration) -> str:
    f: FuncTable = d.obj
    entries = ", ".join(
        f"{quote_label(f.src.elements[i])} -> {quote_label(f.tgt.elements[int(j)])}"
        for i, j in enumerate(f.table)
    )
    return f": {quote_label(f.src.name)} -> {quote_label(f.tgt.name)} = {entries}".rstrip(" ")


def _print_preorder(d: Declaration) -> str:
    r: Rel = d.obj
    return f": {quote_label(r.src.name)} = {_pairs(r)}".rstrip(" ")


def _print_representation(d: Declaration) -> str:
    rep: Representation = d.obj
    return (
        f"= traces {quote_label(rep.traces.name)} exprs {quote_label(rep.exprs.name)}"
        f" models {quote_label(d.pieces['models_name'])} leq {quote_label(d.pieces['leq_name'])}"
    )


def _print_morphism(d: Declaration) -> str:
    m: Morphism = d.obj
    p = d.pieces
    return (
        f": {quote_label(p['source'])} -> {quote_label(p['target'])}"
        f" = phi {quote_label(p['phi'])} psi {quote_label(p['psi'])}"
    )


def _print_reduction(d: Declaration) -> str:
    p = d.pieces
    return (
        f": {quote_label(p['source'])} -> {quote_label(p['target'])}"
        f" = phi {quote_label(p['phi'])} tau {quote_label(p['tau'])} psi {quote_label(p['psi'])}"
    )


def _print_closure(d: Declaration) -> str:
    p = d.pieces
    return (
        f": {quote_label(p['source'])} -> {quote_label(p['target'])}"
        f" = map {quote_label(p['map'])}"
    )


def _print_signature(d: Declaration) -> str:
    sig: Signature = d.obj
    body = " ".join(f"{op}:{arity}" for op, arity in sig.ops)
    return f"= {body}".rstrip(" ")


def _print_config(config: dict) -> str:
    parts = ["builtin", config["builtin"]]
    for key, val in config.items():
        if key in ("builtin", "sig_name"):
            continue
        if key == "sig":
            parts += ["sig", quote_label(config["sig_name"])]
        else:
            parts += [key, str(val)]
    return "= " + " ".join(parts)


def _print_family(d: Declaration) -> str:
    return _print_config(d.obj)


def _print_hor(d: Declaration) -> str:
    return _print_config(d.obj)


def _print_probes(d: Declaration) -> str:
    body = " ".join(f"{k} {v}" for k, v in d.obj.items())
    return ("= " + body).rstrip(" ")


_PRINTERS = {
    "set": _print_set,
    "rel": _print_rel,
    "fun": _print_fun,
    "preorder": _print_preorder,
    "representation": _print_representation,
    "morphism": _print_morphism,
    "reduction": _print_reduction,
    "closure": _print_closure,
    "signature": _print_signature,
    "family": _print_family,
    "hor": _print_hor,
    "probes": _print_probes,
}


def print_document(doc: Document) -> str:
    return "\n".join(d.printed() for d in doc.decls) + "\n"
