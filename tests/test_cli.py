"""Command line surface: exit codes, output shape, piping, determinism."""

import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import goodpairs
from goodpairs.cli import main
from goodpairs.composition import qt_decompose
from goodpairs.digraph import Digraph
from goodpairs.errors import InvalidInput

TRIANGLE = "vertices a b c\narc a b\narc b c\narc c a\n"
DIGON_PAIR = (
    "vertices a b c\n"
    "arc a b\narc b a\narc b c\narc c b\narc a c\narc c a\n"
)
BLOCKED = (
    "quotient {\n  vertices q0 q1 q2\n  arc q0 q1\n  arc q1 q2\n  arc q0 q2\n}\n"
    "part q0 {\n  vertices u\n}\n"
    "part q1 {\n  vertices m0 m1\n}\n"
    "part q2 {\n  vertices v\n}\n"
    "roots u v\n"
)


def run(*args, stdin=None):
    return CliRunner().invoke(main, list(args), input=stdin)


def test_decide_yes_exit_zero_with_verified_pair():
    r = run("decide", "-", "--u", "a", "--v", "b", stdin=DIGON_PAIR)
    assert r.exit_code == 0
    lines = r.output.splitlines()
    assert lines[0] == "YES"
    assert any(l.startswith("out ") for l in lines)
    assert any(l.startswith("in ") for l in lines)
    payload = json.loads(lines[-1].split(" ", 1)[1])
    assert payload["answer"] == "yes" and payload["names"] == ["a", "b", "c"]
    assert payload["pair"]["out"]["root"] == 0


def test_decide_no_exit_one_with_reason():
    r = run("decide", "-", stdin=BLOCKED)
    assert r.exit_code == 1
    lines = r.output.splitlines()
    assert lines[0] == "NO"
    assert lines[1] == "reason middle-blocked"
    assert lines[-1].startswith("verdict-json ")


def test_decide_is_byte_deterministic():
    a = run("decide", "-", stdin=BLOCKED)
    b = run("decide", "-", stdin=BLOCKED)
    assert a.output == b.output and a.exit_code == b.exit_code


def test_decide_rejects_bad_roots_and_class():
    r = run("decide", "-", "--u", "zz", "--v", "a", stdin=TRIANGLE)
    assert r.exit_code == 2
    r = run("decide", "-", "--class", "composition", stdin=TRIANGLE)
    assert r.exit_code == 2
    r = run("decide", "-", "--u", "a", stdin=TRIANGLE)
    assert r.exit_code == 2


def test_decide_forced_qt_rejects_a_non_quasi_transitive_digraph():
    # the forced route checks the class before its root test: with roots
    # c, a both root sides are starved, a NO in any digraph
    message = "input digraph is not quasi-transitive"
    path = "vertices a b c\narc a b\narc b c\n"
    for u, v in (("a", "c"), ("c", "a")):
        r = run("decide", "-", "--class", "qt", "--u", u, "--v", v, stdin=path)
        assert r.exit_code == 2
        assert f"error: {message}" in r.output
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        qt_decompose(Digraph(3, [(0, 1), (1, 2)]))


def test_decide_parse_error_names_the_line():
    r = run("decide", "-", stdin="vertices a b\narc a zz\n")
    assert r.exit_code == 2
    assert "line 2" in r.output


def test_verify_accepts_decide_output():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g.txt", "w") as fh:
            fh.write(DIGON_PAIR + "roots a b\n")
        decided = runner.invoke(main, ["decide", "g.txt"])
        assert decided.exit_code == 0
        with open("pair.txt", "w") as fh:
            fh.write(decided.output)
        verified = runner.invoke(main, ["verify", "g.txt", "pair.txt"])
        assert verified.exit_code == 0
        assert "pair accepted" in verified.output

        # mangle one arc: same line count, no longer arc-disjoint
        bad = decided.output.replace("out ", "in ", 1)
        with open("bad.txt", "w") as fh:
            fh.write(bad)
        rejected = runner.invoke(main, ["verify", "g.txt", "bad.txt"])
        assert rejected.exit_code == 1
        assert "pair rejected" in rejected.output


def test_piped_decide_and_oracle_keep_escapes_in_vertex_names():
    # click strips ANSI escapes from output that is not a terminal, as
    # CliRunner's is; a name that lost its escape no longer verifies
    doc = DIGON_PAIR.replace("b", "x\x1b[1mb") + "roots a x\x1b[1mb\n"
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g.txt", "w") as fh:
            fh.write(doc)
        for command in ("decide", "oracle"):
            out = runner.invoke(main, [command, "g.txt"])
            assert out.exit_code == 0 and "x\x1b[1mb" in out.output
            verified = runner.invoke(main, ["verify", "g.txt", "-"], input=out.output)
            assert verified.exit_code == 0, verified.output
            assert verified.output == "pair accepted\n"


def test_verify_refuses_stdin_for_both_the_document_and_the_pair():
    # stdin holds one stream: reading the document from it would leave
    # the pair empty, so the command refuses before reading either
    text = DIGON_PAIR + "roots a b\n"
    decided = run("decide", "-", stdin=text)
    assert decided.exit_code == 0
    for args in (("verify", "-", "-"), ("verify", "-")):
        r = run(*args, stdin=text + decided.output)
        assert r.exit_code == 2, args
        assert (
            "error: the document and the pair file cannot both be stdin" in r.output
        ), args
        assert "cannot parse" not in r.output


def test_non_utf8_input_is_malformed_input():
    # exit 2 with an error line, never 1 (decide's NO) with a traceback
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g.txt", "w") as fh:
            fh.write(DIGON_PAIR + "roots a b\n")
        with open("bad.txt", "wb") as fh:
            fh.write(b"vertices a \xff\n")
        for args in (
            ["decide", "bad.txt"],
            ["oracle", "bad.txt"],
            ["verify", "bad.txt", "g.txt"],
            ["verify", "g.txt", "bad.txt"],
        ):
            r = runner.invoke(main, args)
            assert r.exit_code == 2, args
            assert r.exception is None or isinstance(r.exception, SystemExit)
            assert "error: cannot read bad.txt: not UTF-8 text" in r.output, args
        r = runner.invoke(main, ["decide", "-"], input=b"vertices a \xff\n")
        assert r.exit_code == 2
        assert "error: cannot read -: not UTF-8 text" in r.output


def test_crlf_document_decides_alike_from_a_path_and_stdin():
    # a path and stdin are both read as bytes: '\r\n' stays in the text,
    # and the parser counts it as one line break
    runner = CliRunner()
    with runner.isolated_filesystem():
        for text in (DIGON_PAIR + "roots a b\n", BLOCKED, "vertices a b\n\narc a zz\n"):
            crlf = text.replace("\n", "\r\n").encode()
            with open("lf.txt", "wb") as fh:
                fh.write(text.encode())
            with open("crlf.txt", "wb") as fh:
                fh.write(crlf)
            runs = [
                runner.invoke(main, ["decide", "lf.txt"]),
                runner.invoke(main, ["decide", "crlf.txt"]),
                runner.invoke(main, ["decide", "-"], input=crlf),
            ]
            assert len({(r.exit_code, r.stdout_bytes) for r in runs}) == 1, text
        assert runs[0].exit_code == 2 and not runs[0].stdout_bytes
        for r in runs:
            assert "line 3: unknown vertex 'zz' in arc line" in r.stderr


def test_oracle_matches_decide_on_small_input():
    yes = run("oracle", "-", "--u", "a", "--v", "b", stdin=DIGON_PAIR)
    assert yes.exit_code == 0 and yes.output.splitlines()[0] == "YES"
    no = run("oracle", "-", stdin=BLOCKED)
    assert no.exit_code == 1
    assert "exhaustive-search" in no.output


def test_oracle_refuses_large_graphs():
    big = "vertices " + " ".join(f"x{i}" for i in range(16)) + "\n"
    r = run("oracle", "-", "--u", "x0", "--v", "x1", "--max-n", "9", stdin=big)
    assert r.exit_code == 2


def test_gen_pipes_into_decide():
    runner = CliRunner()
    with runner.isolated_filesystem():
        gen = runner.invoke(main, ["gen", "--family", "b", "--t", "2"])
        assert gen.exit_code == 0
        with open("doc.txt", "w") as fh:
            fh.write(gen.output)
        decided = runner.invoke(main, ["decide", "doc.txt"])
        assert decided.exit_code == 1

        gen2 = runner.invoke(
            main, ["gen", "--family", "two-arc-strong", "--seed", "3", "--n", "6"]
        )
        assert gen2.exit_code == 0
        with open("doc2.txt", "w") as fh:
            fh.write(gen2.output)
        decided2 = runner.invoke(
            main, ["decide", "doc2.txt", "--u", "v0", "--v", "v1"]
        )
        assert decided2.exit_code == 0


def test_gen_every_family_emits_a_parseable_document():
    from goodpairs.textio import parse_document

    cases = {
        "a": [],
        "b": ["--t", "1"],
        "c": ["--t", "2"],
        "d": [],
        "e4": ["--t", "2"],
        "e5": ["--t", "2"],
        "f": [],
        "g": [],
        "kind-a": ["--seed", "1"],
        "kind-b": ["--seed", "1"],
        "near-miss": ["--index", "0"],
        "random-composition": ["--seed", "1"],
        "random-qt": ["--seed", "1", "--n", "6"],
        "two-arc-strong": ["--seed", "1", "--n", "6"],
    }
    for family, extra in cases.items():
        r = run("gen", "--family", family, *extra)
        assert r.exit_code == 0, (family, r.output)
        parse_document(r.output)


def test_gen_rejects_a_size_or_index_that_has_no_instance():
    # exit 1 means NO, so a size or index with no instance exits 2;
    # a 2-arc-strong draw on fewer than 3 vertices would never end
    for family, n, least in (
        ("random-qt", "0", 1),
        ("random-qt", "-4", 1),
        ("two-arc-strong", "2", 3),
    ):
        r = run("gen", "--family", family, "--n", n)
        assert r.exit_code == 2, (family, n, r.output)
        assert r.output == f"error: {family} needs n >= {least}, not {n}\n"
    assert run("gen", "--family", "random-qt", "--n", "1").output == "vertices v0\n"
    for index in ("-1", "-5", "99"):
        r = run("gen", "--family", "near-miss", "--index", index)
        assert r.exit_code == 2, (index, r.output)
        assert r.output == f"error: near-miss index {index} out of range\n"


def test_gen_rejects_a_head_size_it_cannot_build():
    default = run("gen", "--family", "e5").output
    assert run("gen", "--family", "e5", "--head", "1").output == default
    assert run("gen", "--family", "f", "--head", "2").exit_code == 0
    for family in ("e5", "f"):
        for head in ("0", "3", "7", "-1"):
            r = run("gen", "--family", family, "--head", head)
            assert r.exit_code == 2, (family, head, r.output)
            assert r.output == f"error: --head must be 1 or 2, not {head}\n"


def test_gen_rejects_a_star_or_middle_arc_count_it_cannot_build():
    # a count the part cannot hold used to print another count's document
    assert run("gen", "--family", "f", "--ku", "0").exit_code == 0
    assert run("gen", "--family", "c", "--t", "2", "--arcs", "1").exit_code == 0
    for family, flag in (
        ("d", "--ku"),
        ("d", "--kv"),
        ("e4", "--ku"),
        ("e5", "--ku"),
        ("f", "--ku"),
    ):
        for count in ("2", "5", "-1"):
            r = run("gen", "--family", family, flag, count)
            assert r.exit_code == 2, (family, flag, count, r.output)
            assert r.output == (
                f"error: no star part of 2 vertices has {count} arcs\n"
            )
    for t, arcs in (("2", "-1"), ("2", "2"), ("1", "1"), ("3", "-4")):
        r = run("gen", "--family", "c", "--t", t, "--arcs", arcs)
        assert r.exit_code == 2, (t, arcs, r.output)
        assert r.output == (
            f"error: no middle part of {t} vertices has {arcs} arcs\n"
        )


def _fresh_python(code: str, *args: str, stdin: str = ""):
    """Run code in a new interpreter that finds this goodpairs first."""
    env = dict(os.environ)
    src = str(Path(goodpairs.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_cli_import_loads_only_the_decision_path():
    r = _fresh_python(
        "import sys, goodpairs.cli\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('goodpairs.'))))"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        f"goodpairs.{name}"
        for name in (
            "branchings",
            "cli",
            "composition",
            "digraph",
            "dispatch",
            "errors",
            "oracle",
            "semicomplete",
            "textio",
            "verdicts",
        )
    ]


def test_fresh_process_imports_the_semicomplete_tail_on_first_use():
    doc = run("gen", "--family", "kind-a", "--seed", "5").output
    want = run("decide", "-", stdin=doc)
    main_code = "from goodpairs.cli import main; main()"
    r = _fresh_python(main_code, "decide", "-", stdin=doc)
    assert r.returncode == want.exit_code == 1, r.stderr
    assert r.stdout.splitlines()[:2] == ["NO", "reason layered-a"]
    assert r.stdout == want.output


def test_crosscheck_file_and_sweep():
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("doc.txt", "w") as fh:
            fh.write(BLOCKED)
        r = runner.invoke(main, ["crosscheck", "--file", "doc.txt"])
        assert r.exit_code == 0
        assert "0 mismatches" in r.output
    r = run("crosscheck", "--compositions", "4")
    assert r.exit_code == 0
    assert "0 mismatches" in r.output
    r = run("crosscheck")
    assert r.exit_code == 2
    # exit 1 means a mismatch, so a sample size out of range is exit 2
    for n in ("0", "10"):
        r = run("crosscheck", "--qt-samples", "2", "--qt-sample-n", n)
        assert r.exit_code == 2, (n, r.output)


@pytest.mark.parametrize(
    "flags",
    [
        ("--compositions", "-2"),
        ("--compositions", "0"),
        ("--qt-samples", "-3"),
        ("--qt-exhaustive", "-2"),
        ("--exhaustive-semicomplete", "-1"),
    ],
)
def test_crosscheck_sweep_with_no_root_pair_is_an_error(flags):
    # a sweep that checked nothing must not pass as "0 mismatches"
    r = run("crosscheck", *flags)
    assert r.exit_code == 2, r.output
    assert "nothing to check" in r.output
    assert "mismatches" not in r.output


def _live_text_wrappers():
    gc.collect()
    return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())


def test_in_process_decides_do_not_keep_their_streams_alive():
    args = ("decide", "-", "--u", "a", "--v", "b")
    run(*args, stdin=DIGON_PAIR)
    before = _live_text_wrappers()
    for _ in range(100):
        assert run(*args, stdin=DIGON_PAIR).exit_code == 0
    assert _live_text_wrappers() - before <= 5


def test_in_process_decide_frees_its_verdict_without_a_collection():
    # SystemExit's traceback sits in a reference cycle that CliRunner
    # keeps, so whatever the frame raising it holds lives until the next
    # collection; decide must raise it from a frame that holds no verdict
    from goodpairs.verdicts import Verdict

    def live_verdicts():
        return sum(isinstance(o, Verdict) for o in gc.get_objects())

    run("decide", "-", "--u", "a", "--v", "b", stdin=DIGON_PAIR)
    gc.collect()
    before = live_verdicts()
    gc.disable()
    try:
        run("decide", "-", "--u", "a", "--v", "b", stdin=DIGON_PAIR)
        assert live_verdicts() == before
    finally:
        gc.enable()
