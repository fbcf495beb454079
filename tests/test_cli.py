import inspect
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from finrep import fset, rel
from finrep.cli import FAMILY_BUILDERS, HOR_BUILDERS, main
from finrep.document import FAMILY_BUILTINS, HOR_BUILTINS
from finrep.errors import TheoremInconsistencyError
from finrep.functors import Signature

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def doc(name: str) -> str:
    return str(CORPUS / name)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_exact_membership(capsys):
    rc, out, err = run(capsys, "check", "exact", doc("membership2.doc"))
    assert rc == 0
    assert out == (
        "command: check exact\n"
        "subject: representation 'membership2'\n"
        "verdict reflexivity: ok\n"
        "verdict transitivity: ok\n"
        "verdict soundness: ok\n"
        "verdict exactness: ok\n"
        "scope: exhaustive over declared carriers (2 S, 4 P)\n"
        "exit: 0\n"
    )
    assert err == ""


def test_check_rep_broken_soundness_witness(capsys):
    rc, out, _ = run(capsys, "check", "rep", doc("broken-soundness.doc"))
    assert rc == 1
    assert "verdict soundness: VIOLATION" in out
    assert "witness: (t, e1)" in out


def test_check_exact_on_an_unsound_representation_reports_its_validation(capsys):
    rc, out, err = run(capsys, "check", "exact", doc("broken-soundness.doc"))
    assert (rc, err) == (1, "")
    assert out == (
        "command: check exact\n"
        "subject: representation 'broken'\n"
        "verdict reflexivity: ok\n"
        "verdict transitivity: ok\n"
        "verdict soundness: VIOLATION  [via link (e0, e1)]\n"
        "witness: (t, e1)\n"
        "scope: exhaustive over declared carriers (1 T, 2 E)\n"
        "exit: 1\n"
    )


def test_check_reduction_four_verdicts(capsys):
    rc, out, _ = run(capsys, "check", "reduction", doc("closure-two-elt.doc"))
    assert rc == 0
    assert out.count("verdict ") == 4


def test_check_closure(capsys):
    rc, out, _ = run(capsys, "check", "closure", doc("closure-two-elt.doc"))
    assert rc == 0
    assert "closure-covers-satisfaction" in out and "closure-within-order" in out


def test_check_morphism(capsys):
    rc, out, _ = run(capsys, "check", "morphism", doc("pair.doc"))
    assert rc == 0
    assert "order-preservation" in out and "models-transport" in out


def test_build_trivial_exact(capsys):
    rc, out, _ = run(capsys, "build", "trivial", doc("pair.doc"), "--rel", "x")
    assert rc == 0
    assert "verdict exactness: ok" in out


def test_build_membership(capsys):
    rc, out, _ = run(capsys, "build", "membership", doc("membership2.doc"), "--set", "S")
    assert rc == 0
    assert "subset bound 4" in out


def test_build_product_defaults_to_the_two_reps(capsys):
    rc, out, _ = run(capsys, "build", "product", doc("pair.doc"))
    assert rc == 0
    assert "left-projection-models-transport" in out
    assert "right-projection-order-preservation" in out


def test_reduce_compose(capsys):
    rc, out, _ = run(capsys, "reduce", "compose", doc("chain.doc"))
    assert rc == 0
    assert out.count("verdict ") == 4


@pytest.mark.parametrize("argv, message", [
    (["reduce", "compose", doc("chain.doc"), "--first", "step1"], "name both reductions or neither"),
    (["build", "product", doc("pair.doc"), "--right", "second"], "name both representations or neither"),
    (["reduce", "compose", doc("closure-two-elt.doc")], "document declares 1 reductions, name two explicitly"),
    (["build", "product", doc("membership2.doc")], "document declares 1 representations, name two explicitly"),
])
def test_two_declarations_are_named_both_or_neither(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_hor_instantiate_mon(capsys):
    rc, out, _ = run(capsys, "hor", "instantiate", doc("lift.doc"), "--set", "S")
    assert rc == 0
    assert "exactness-finding" in out


def test_hor_arrow(capsys):
    rc, out, _ = run(capsys, "hor", "arrow", doc("lift.doc"), "--fun", "swap")
    assert rc == 0
    assert "models-transport" in out


def test_hor_lift_preorder(capsys):
    rc, out, _ = run(capsys, "hor", "lift-preorder", doc("lift.doc"), "--preorder", "chain")
    assert rc == 0
    assert "absorbs-lifted-order" in out


def test_hor_lift_rep(capsys):
    rc, out, _ = run(capsys, "hor", "lift-rep", doc("lift.doc"), "--name", "membership2")
    assert rc == 0
    assert "exactness-finding" in out


UNSOUND = (
    "set T = t\n"
    "set E = e0 e1\n"
    "rel sat : T -> E = (t, e0)\n"
    "preorder ord : E = (e0, e0) (e0, e1) (e1, e1)\n"
    "representation broken = traces T exprs E models sat leq ord\n"
)
UNSOUND_VERDICTS = (
    "verdict reflexivity: ok\n"
    "verdict transitivity: ok\n"
    "verdict soundness: VIOLATION  [via link (e0, e1)]\n"
    "witness: (t, e1)\n"
)
UNSOUND_SCOPE = "scope: exhaustive over declared carriers (1 T, 2 E)\n"


def test_build_product_reports_an_unsound_factor(capsys, tmp_path):
    path = tmp_path / "product.doc"
    path.write_text(
        UNSOUND
        + "rel full : T -> E = (t, e0) (t, e1)\n"
        + "representation sound = traces T exprs E models full leq ord\n"
    )
    rc, out, err = run(capsys, "build", "product", str(path))
    assert (rc, err) == (1, "")
    assert out == (
        "command: build product\n"
        "subject: product factors\n" + UNSOUND_VERDICTS + UNSOUND_SCOPE + "exit: 1\n"
    )


def test_hor_lift_rep_reports_an_unsound_base(capsys, tmp_path):
    path = tmp_path / "lift.doc"
    path.write_text(UNSOUND + "hor monoid = builtin mon depth 2\n")
    rc, out, err = run(capsys, "hor", "lift-rep", str(path))
    assert (rc, err) == (1, "")
    assert out == (
        "command: hor lift-rep\n"
        "subject: representation 'broken'\n" + UNSOUND_VERDICTS + UNSOUND_SCOPE + "exit: 1\n"
    )


def test_hor_instantiate_ka_exact(capsys):
    rc, out, _ = run(capsys, "hor", "instantiate", doc("ka.doc"), "--set", "A")
    assert rc == 0
    assert "exact at this instance" in out


def test_check_naturality_membership(capsys):
    rc, out, _ = run(capsys, "check", "naturality", doc("families.doc"), "--family", "member_of")
    assert rc == 0
    assert "natural-relation" in out


def test_check_linearity_membership_fails_left(capsys):
    rc, out, _ = run(capsys, "check", "linearity", doc("families.doc"), "--family", "member_of")
    assert rc == 1
    assert "verdict right-linear-relations: ok" in out
    assert "verdict left-linear-relations: VIOLATION" in out


def test_check_linearity_side_flag(capsys):
    rc, out, _ = run(
        capsys, "check", "linearity", doc("families.doc"),
        "--family", "member_of", "--side", "right", "--mode", "relations",
    )
    assert rc == 0


def test_one_side_in_both_modes_checks_functions_first(capsys):
    # --mode both is the default: one side names both of its modes
    rc, out, _ = run(capsys, "check", "linearity", doc("families.doc"), "--family", "member_of", "--side", "left")
    assert rc == 1
    laws = [line.split(":")[0] for line in out.splitlines() if line.startswith("verdict ")]
    assert laws == ["verdict left-linear-functions", "verdict left-linear-relations"]


def test_build_trivial_refuses_its_order_before_allocating(capsys, monkeypatch, tmp_path):
    # 5000 expressions: the 5000 x 5000 order is refused before the residual runs
    big = tmp_path / "wide.doc"
    labels = " ".join(f"e{i}" for i in range(5000))
    big.write_text(f"set T = t\nset E = {labels}\nrel x : T -> E = (t, e0)\n", encoding="utf-8")

    def refuse(*args):
        raise AssertionError("the residual ran")

    monkeypatch.setattr(rel, "residual", refuse)
    rc, out, err = run(capsys, "build", "trivial", str(big), "--rel", "x")
    assert (rc, out) == (2, "")
    assert err == ("error: budget exceeded: semantic containment of 'trivial(T|E)' has "
                   "5000 x 5000 = 25000000 cells, budget 20000000\n")


def test_check_linearity_varlist_linear(capsys):
    rc, out, _ = run(capsys, "check", "linearity", doc("families.doc"), "--family", "letters")
    assert rc == 0


def test_probes_declaration_feeds_scope(capsys):
    rc, out, _ = run(capsys, "check", "linearity", doc("families.doc"), "--family", "wrap")
    assert rc == 1
    assert "sizes 0..2" in out and "6 samples" in out


def test_naturality_states_only_the_function_scope(capsys):
    # naturality and functions-mode linearity read probe functions, never
    # the sampled relations
    for argv, want in ((["naturality", "--family", "wrap"], 0),
                       (["linearity", "--family", "member_of", "--side", "left", "--mode", "functions"], 1)):
        rc, out, _ = run(capsys, "check", argv[0], doc("families.doc"), *argv[1:],
                         "--seed", "7", "--samples", "3")
        assert rc == want
        assert "scope: probe carriers of sizes 0..2, all functions\n" in out
        assert "seed" not in out and "samples" not in out


def test_laws_relcore(capsys):
    rc, out, _ = run(capsys, "laws", "relcore", "--samples", "20", "--seed", "3")
    assert rc == 0
    assert "seed: 3" in out
    rc2, out2, _ = run(capsys, "laws", "relcore", "--samples", "20", "--seed", "4")
    assert rc2 == 0  # seed changes sampling, not outcomes


def test_structured_and_text_carry_identical_witnesses(capsys):
    rc, text_out, _ = run(capsys, "check", "rep", doc("broken-soundness.doc"))
    rc2, json_out, _ = run(
        capsys, "check", "rep", doc("broken-soundness.doc"), "--format", "structured"
    )
    assert rc == rc2 == 1
    tree = json.loads(json_out)
    bad = [v for v in tree["verdicts"] if not v["ok"]]
    assert bad[0]["witness"] == ["t", "e1"]
    assert "witness: (t, e1)" in text_out
    assert tree["exit"] == 1 and tree["command"] == "check rep"


def test_structured_output_deterministic(capsys):
    args = ("check", "linearity", doc("families.doc"), "--family", "member_of",
            "--format", "structured")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert (rc1, out1) == (rc2, out2)


def test_missing_file_exits_2(capsys):
    rc, out, err = run(capsys, "check", "rep", doc("nope.doc"))
    assert rc == 2 and out == "" and "error:" in err


def test_empty_document_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.doc"
    empty.write_text("")
    rc, _, err = run(capsys, "check", "rep", str(empty))
    assert rc == 2
    assert "0 representations" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.doc"
    bad.write_text("set A = a\nrel r : A -> A = (a, ghost)\n")
    rc, _, err = run(capsys, "check", "rep", str(bad))
    assert rc == 2
    assert "line 2" in err and "ghost" in err


@pytest.mark.parametrize("argv", [
    ["check", "exact", "membership2.doc"],
    ["build", "product", "pair.doc"],
    ["hor", "instantiate", "ka.doc", "--set", "A"],
], ids=lambda argv: " ".join(argv[:3]))
def test_a_byte_order_mark_is_read_past(capsys, tmp_path, argv):
    # a UTF-8 file may start with a byte-order mark; the report is the
    # original's byte for byte
    marked = tmp_path / argv[2]
    marked.write_bytes(b"\xef\xbb\xbf" + (CORPUS / argv[2]).read_bytes())
    original = run(capsys, *argv[:2], doc(argv[2]), *argv[3:])
    assert original[0] == 0
    assert run(capsys, *argv[:2], str(marked), *argv[3:]) == original


def test_unknown_name_exits_2(capsys):
    rc, _, err = run(capsys, "check", "rep", doc("membership2.doc"), "--name", "ghost")
    assert rc == 2 and "ghost" in err


def test_budget_exceeded_exits_2(capsys):
    rc, _, err = run(
        capsys, "hor", "instantiate", doc("ka.doc"), "--set", "A", "--budget", "10"
    )
    assert rc == 2
    assert "budget exceeded" in err and "10" in err
    fset.check_budget(200_000, "a carrier at the default budget")  # restored after the run


def test_law_samples_over_the_cell_budget_exit_2_before_the_first_draw(capsys):
    # a sample counts as one instance: 1,000 cells at budget 10
    argv = ["laws", "relcore", "--probe-max", "1", "--budget", "10", "--samples"]
    rc, out, err = run(capsys, *argv, "1001")
    assert (rc, out) == (2, "")
    assert err == "error: budget exceeded: residual-adjunction-sampled has 1001 instances, budget 1000\n"
    rc, out, err = run(capsys, *argv, "1000")
    assert (rc, err) == (0, "")
    assert "1000 samples at size 4" in out


def test_order_over_the_cell_budget_exits_2_before_allocating(capsys, tmp_path):
    # 112,416 expressions pass the element budget; their 112416 x 112416
    # order does not pass the cell budget derived from it
    ka8 = tmp_path / "ka8.doc"
    ka8.write_text("set A = a b\nhor wide = builtin ka size 8 words 3\n", encoding="utf-8")
    rc, out, err = run(capsys, "hor", "instantiate", str(ka8))
    assert (rc, out) == (2, "")
    assert err == ("error: budget exceeded: order of ka(semantic, size 8, words 3) at A has "
                   "112416 x 112416 = 12637357056 cells, budget 20000000\n")


@pytest.mark.parametrize("text, label, carrier", [
    ('set A = 0 "0>.<0>.<0"\nhor k = builtin ka size 3 words 1\n', "(<0>.<0>.<0>.<0>)", "reg3(A)"),
    ('set A = "(" "(>,<("\nhor m = builtin mon depth 2\n', "mul(<(>,<(>,<(>)", "term2(A)"),
    ('set A = a "a,b" b\nhor m = builtin mon depth 2\n', "[a,b]", "list2(A)"),
], ids=["regex", "term", "list"])
def test_colliding_generated_labels_exit_2(capsys, tmp_path, text, label, carrier):
    # fenced base labels can still spell one generated label twice; such a
    # carrier is refused, not built with two elements of one name
    path = tmp_path / "collide.doc"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "hor", "instantiate", str(path), "--set", "A")
    assert (rc, out) == (2, "")
    assert err == f"error: duplicate element label {label!r} in carrier {carrier!r}\n"


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("text, argv, refusal", [
    (None, ["build", "membership", doc("membership2.doc"), "--set", "S", "--budget", "2"],
     "powerset of 'S' has 4 elements, budget 2"),
    (None, ["build", "product", doc("pair.doc"), "--budget", "2"],
     "sum of 'T' and 'T' has 4 elements, budget 2"),
    ("set S = a b c d e f g h i j k l m n\n", ["build", "membership", "--set", "S", "--powerset-cap", "14"],
     "subset order over 'S' has 16384 x 16384 = 268435456 cells, budget 20000000"),
    ("family u = builtin union cap 5\n", ["check", "naturality", "--family", "u", "--probe-max", "5"],
     "powerset of 'P(probe5)' has 4294967296 elements, budget 200000"),
    ("family u = builtin union cap 3\n",
     ["check", "linearity", "--family", "u", "--mode", "relations", "--side", "left",
      "--probe-max", "3", "--budget", "300"],
     "lift through powerset(cap 8) after powerset(cap 3) at 'probe3' has 256 x 256 = 65536 cells, budget 30000"),
    ("family u = builtin union cap 4\n",
     ["check", "linearity", "--family", "u", "--mode", "relations", "--side", "left", "--probe-max", "4"],
     "lift through powerset(cap 16) after powerset(cap 4) at 'probe4' has 65536 x 65536 = 4294967296 cells, "
     "budget 20000000"),
    *((f"signature S = mul:2\nfamily f = builtin {family} sig S depth 4\n",
       ["check", "linearity", "--family", "f", "--mode", mode, "--probe-max", "3"],
       "lift through term({'mul': 2}, depth 4) at 'probe3' has 21612 x 21612 = 467078544 cells, budget 20000000")
      for family in ("term-unit", "samevars") for mode in ("relations", "functions")),
    *((None, ["laws", "relcore", "--probe-max", top],
       "residual-adjunction-exhaustive to size 3 has 140823792 instances, budget 20000000")
      for top in ("3", "6")),
    # every square fits the budget, but not the walk over all of them
    (None, ["check", "naturality", doc("families.doc"), "--family", "letters", "--probe-max", "7"],
     "probe walk of 1419768 arrows to 'probe7' has 1419768 x 5184 = 7360077312 cells, budget 20000000"),
    (None, ["check", "linearity", doc("families.doc"), "--family", "member_of", "--mode", "relations",
            "--probe-max", "3", "--samples", "1000000"],
     "probe walk of 1000182 arrows to 'probe3' has 1000182 x 64 = 64011648 cells, budget 20000000"),
], ids=["powerset", "sum", "subset-order", "union-outer-powerset", "union-lift", "union-lift-probe4",
        "term-unit-relations", "term-unit-functions", "samevars-relations", "samevars-functions",
        "laws-probe3", "laws-probe6", "naturality-function-walk", "linearity-relation-walk"])
def test_derived_carriers_over_the_budget_exit_2_in_a_bounded_child(tmp_path, text, argv, refusal):
    # refused before anything that size is built; the address-space limit
    # and the timeout turn a regression into a failure, not a hang
    if text is not None:
        (tmp_path / "big.doc").write_text(text, encoding="utf-8")
        argv = argv[:2] + [str(tmp_path / "big.doc")] + argv[2:]
    proc = subprocess.run(
        [sys.executable, "-m", "finrep.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        preexec_fn=_two_gib_address_space, timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: budget exceeded: {refusal}\n"


def test_document_with_unicode_spaces_in_labels_exits_0(capsys, tmp_path):
    nbsp = tmp_path / "nbsp.doc"
    nbsp.write_text("set A = a\u00a0b c\u3000d\n", encoding="utf-8")
    rc, out, err = run(capsys, "build", "membership", str(nbsp), "--set", "A")
    assert (rc, err) == (0, "")
    assert "(2 A, 4 P(A))" in out


def test_document_preorder_checked_once(capsys, monkeypatch):
    # the parser and the representation check read one report of `subset`
    squares = []
    product = rel.product

    def counted(a, b):
        if a is b:
            squares.append(a.shape)
        return product(a, b)

    monkeypatch.setattr(rel, "product", counted)
    rc, out, _ = run(capsys, "check", "rep", doc("membership2.doc"))
    assert rc == 0 and "transitivity: ok" in out
    assert squares == [(4, 4)]


def test_inconsistency_exits_3_with_one_line(capsys, monkeypatch):
    def broken(r):
        raise TheoremInconsistencyError("exactness transfer disagrees\nsecond route: ok")

    monkeypatch.setattr("finrep.cli.validate_reduction", broken)
    rc, out, err = run(capsys, "check", "reduction", doc("closure-two-elt.doc"))
    assert (rc, out) == (3, "")
    assert err == "error: inconsistency: exactness transfer disagrees\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "linearity", doc("families.doc"), "--family", "member_of", "--probe-max", "-1"],
        ["check", "naturality", doc("families.doc"), "--family", "member_of", "--probe-max", "0"],
        ["laws", "relcore", "--samples", "-5"],
        ["laws", "relcore", "--samples", "0"],
        ["hor", "instantiate", doc("ka.doc"), "--budget", "0"],
        ["build", "membership", doc("membership2.doc"), "--set", "S", "--powerset-cap", "-1"],
        ["laws", "relcore", "--seed", "-1"],
        ["check", "linearity", doc("families.doc"), "--family", "member_of", "--probe-max", "3", "--seed", "-3"],
        ["check", "naturality", doc("families.doc"), "--family", "member_of", "--seed", "-3"],
    ],
)
def test_vacuous_scope_flags_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --") and "must be at least" in err


_PROBE_REFUSALS = {
    "max 0": "probe max must be at least 1",
    "samples -3 seed 0": "probe samples must be at least 1",
    "max 2 seed -1": "probe seed must be at least 0",
}


@pytest.mark.parametrize("decl", list(_PROBE_REFUSALS))
def test_vacuous_probes_declaration_exits_2(capsys, tmp_path, decl):
    bad = tmp_path / "probes.doc"
    bad.write_text(
        "signature S = mul:2 one:0\n"
        "family f = builtin membership cap 2\n"
        f"probes P = {decl}\n"
    )
    rc, out, err = run(capsys, "check", "naturality", str(bad), "--family", "f")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: line 3") and _PROBE_REFUSALS[decl] in err


@pytest.mark.parametrize("key, flag, floor", [("max", "--probe-max", 1), ("samples", "--samples", 1),
                                              ("seed", "--seed", 0)])
def test_a_probe_flag_and_its_probes_key_share_one_floor(capsys, tmp_path, key, flag, floor):
    family = tmp_path / "family.doc"
    family.write_text("family f = builtin membership cap 3\n")
    rc, out, err = run(capsys, "check", "naturality", str(family), flag, str(floor - 1))
    assert (rc, out, err) == (2, "", f"error: {flag} must be at least {floor}, got {floor - 1}\n")
    line = tmp_path / "probes.doc"
    line.write_text(f"family f = builtin membership cap 3\nprobes P = {key} {floor - 1}\n")
    rc, out, err = run(capsys, "check", "naturality", str(line))
    assert (rc, out) == (2, "") and err.endswith(f": probe {key} must be at least {floor}\n")
    rc, _, err = run(capsys, "check", "naturality", str(family), flag, str(floor))
    assert (rc, err) == (0, "")


@pytest.mark.parametrize("argv", [["check", "naturality", "--family", "f"], ["laws", "relcore"]])
def test_a_second_probes_line_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "probes.doc"
    path.write_text(
        "family f = builtin membership cap 2\n"
        "probes P = max 2 samples 4 seed 1\n"
        "probes Q = max 3 samples 9 seed 2\n"
    )
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err == "error: document declares 2 probes lines, expected at most one\n"


@pytest.mark.parametrize("text, argv, message", [
    ("signature S = mul:2\nfamily F = builtin term-unit sig 3\n", ["check", "naturality"],
     "line 2, column 34: unknown signature '3'"),
    ("signature S = mul:2\nfamily F = builtin samevars sig S depth x\n", ["check", "naturality"],
     "line 2, column 41: expected parameter value, got 'x'"),
    ("family F = builtin membership cap x\n", ["check", "naturality"],
     "line 1, column 35: expected parameter value, got 'x'"),
    ("family F = builtin union cap 2 outer y\n", ["check", "linearity"],
     "line 1, column 38: expected parameter value, got 'y'"),
    ("set A = a b\nhor K = builtin ka size x\n", ["hor", "instantiate"],
     "line 2, column 25: expected parameter value, got 'x'"),
    ("set A = a b\nhor N = builtin mon depth y\n", ["hor", "instantiate"],
     "line 2, column 27: expected parameter value, got 'y'"),
    ("signature S = mul:\u00b2\n", ["check", "naturality"],
     "line 1, column 15: expected op:arity, got 'mul:\u00b2'"),
    ("family F = builtin membership cap \u00b2\n", ["check", "naturality"],
     "line 1, column 35: expected parameter value, got '\u00b2'"),
    ("family F = builtin membership foo 3\n", ["check", "naturality"],
     "line 1, column 31: membership family does not take parameter 'foo'"),
    ("set A = a b\nhor H = builtin ka mode frob\n", ["hor", "instantiate"],
     "line 2, column 25: ka mode must be semantic or axiomatic, got 'frob'"),
    ('set A = a b\nhor H = builtin ka mode "semantic x"\n', ["hor", "instantiate"],
     "line 2, column 25: ka mode must be semantic or axiomatic, got 'semantic x'"),
], ids=["sig-number", "depth-word", "cap-word", "outer-word", "size-word", "mon-depth-word",
        "arity-superscript", "cap-superscript", "unknown-parameter", "mode-word", "mode-two-words"])
def test_builtin_parameters_are_typed_at_parse_time(capsys, tmp_path, text, argv, message):
    path = tmp_path / "params.doc"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("grammar, builders", [(FAMILY_BUILTINS, FAMILY_BUILDERS), (HOR_BUILTINS, HOR_BUILDERS)],
                         ids=["family", "hor"])
def test_each_builder_takes_exactly_the_declared_parameters(grammar, builders):
    # the command layer calls a builder with the parameters a declaration
    # gives, so the grammar and the builders must not drift apart
    assert builders.keys() == grammar.keys()
    for name, declared in grammar.items():
        params = inspect.signature(builders[name]).parameters
        assert params.keys() == declared.keys(), name
        for key, p in params.items():
            assert p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY), (name, key)
            # the grammar requires exactly the parameters without a default
            assert (p.default is p.empty) == (declared[key] is Signature), (name, key)


@pytest.mark.parametrize("optimize", [[], ["-O"]])
def test_empty_expression_bound_exits_2_with_and_without_asserts(tmp_path, optimize):
    bad = tmp_path / "ka0.doc"
    bad.write_text("set A = a b\nhor h = builtin ka size 0\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "finrep.cli", "hor", "instantiate", str(bad)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_unknown_subcommand_exits_2(capsys):
    rc, _, _ = run(capsys, "check", "bogus", doc("membership2.doc"))
    assert rc == 2


def test_seed_flag_reported_only_when_sampling(capsys):
    rc, out, _ = run(capsys, "check", "exact", doc("membership2.doc"))
    assert "seed:" not in out
    rc, out, _ = run(capsys, "laws", "relcore", "--samples", "10")
    assert "seed: 0" in out
