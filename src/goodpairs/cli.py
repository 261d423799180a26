"""Command line surface.

Subcommands: decide, verify, oracle, gen, crosscheck.  decide and
oracle exit 0 on YES, 1 on NO; verify exits 0 when the claimed pair is
a good pair; crosscheck exits 1 on any engine/oracle mismatch; every
command exits 2 on malformed input or exceeded bounds.  Identical
inputs and flags produce byte-identical output.

Every echo names its stream: without `file=`, click caches a wrapper per
`sys.stdout` object that keeps the object alive, so each in-process
invocation (a test runner's fresh stream) would leak one.
"""

from __future__ import annotations

import json
import sys

import click

from .branchings import Branching, BranchingPair, good_pair_violation
from .dispatch import CLASSES, decide
from .errors import InternalInconsistency, InvalidInput, ResourceExceeded
from .oracle import DEFAULT_MAX_N, oracle_good_pair
from .textio import (
    InputDocument,
    composition_document,
    emit_document,
    flat_document,
    parse_document,
)
from .verdicts import validate_verdict, verdict_to_dict

_ERRORS = (InvalidInput, ResourceExceeded, InternalInconsistency)


def _die(message: str):
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _read(source: str) -> str:
    """The UTF-8 text of a file, or of stdin for '-'.  Both are read as
    bytes and decoded once, so the locale's decoding cannot pass
    undecodable bytes on; line breaks stay as they are, and the parser's
    `splitlines` counts '\r\n' as one."""
    try:
        if source == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(source, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        _die(str(exc))
    except UnicodeDecodeError as exc:
        _die(f"cannot read {source}: not UTF-8 text ({exc})")


def _load(source: str) -> InputDocument:
    text = _read(source)
    try:
        return parse_document(text)
    except InvalidInput as exc:
        _die(f"cannot parse {source}: {exc}")


def _roots(doc: InputDocument, u_name, v_name) -> tuple[int, int]:
    if (u_name is None) != (v_name is None):
        _die("give both --u and --v, or neither")
    if u_name is not None:
        try:
            return doc.index_of(u_name), doc.index_of(v_name)
        except InvalidInput as exc:
            _die(str(exc))
    if doc.roots is None:
        _die("no roots: add a roots line or pass --u/--v")
    return doc.roots


def _pair_lines(doc: InputDocument, pair: BranchingPair) -> list[str]:
    # a Branching keeps its arcs sorted
    names = doc.names
    out = [f"out {names[a]} {names[b]}" for a, b in pair.out_branching.arcs]
    out += [f"in {names[a]} {names[b]}" for a, b in pair.in_branching.arcs]
    return out


@click.group()
def main():
    """Decide good (u,v)-pairs: arc-disjoint out- and in-branchings."""


@main.command(name="decide")
@click.argument("source", default="-")
@click.option("--u", "u_name", default=None, help="out-branching root name")
@click.option("--v", "v_name", default=None, help="in-branching root name")
@click.option(
    "--class",
    "klass",
    type=click.Choice(CLASSES),
    default="auto",
    help="force an engine instead of recognizing the input",
)
def decide_cmd(source, u_name, v_name, klass):
    """Decide a document; print the pair or the obstruction."""
    doc = _load(source)
    u, v = _roots(doc, u_name, v_name)
    try:
        verdict = decide(doc.target, u, v, klass)
    except _ERRORS as exc:
        _die(str(exc))
    err = validate_verdict(doc.target, verdict)
    if err:
        _die(f"internal: emitted evidence failed re-verification: {err}")
    lines = ["YES" if verdict.yes else "NO", f"reason {verdict.reason}"]
    if verdict.yes:
        lines += _pair_lines(doc, verdict.pair)
    else:
        names = doc.names
        if verdict.side is not None:
            lines.append(f"side {verdict.side}")
        if verdict.arc is not None:
            a, b = verdict.arc
            lines.append(f"arc {names[a]} {names[b]}")
        if verdict.exception_id is not None:
            lines.append(f"exception {verdict.exception_id}")
        if verdict.family is not None:
            rev = " reversed" if verdict.family_reversed else ""
            lines.append(f"family {verdict.family}{rev}")
        if verdict.forcing is not None:
            lines.append(f"forcing-steps {len(verdict.forcing)}")
        if verdict.witness is not None:
            lines.append(f"witness-kind {verdict.witness.kind}")
    payload = {"names": list(doc.names)}
    payload.update(verdict_to_dict(verdict))
    lines.append("verdict-json " + json.dumps(payload, sort_keys=True))
    # color=True: click strips ANSI escapes, vertex names' included,
    # whenever stdout is not a terminal
    click.echo("\n".join(lines), file=sys.stdout, color=True)
    sys.exit(0 if verdict.yes else 1)


@main.command(name="verify")
@click.argument("source")
@click.argument("pairfile", default="-")
@click.option("--u", "u_name", default=None)
@click.option("--v", "v_name", default=None)
def verify_cmd(source, pairfile, u_name, v_name):
    """Check a claimed pair (out/in arc lines, e.g. decide output)."""
    if source == "-" and pairfile == "-":
        _die("the document and the pair file cannot both be stdin")
    doc = _load(source)
    u, v = _roots(doc, u_name, v_name)
    out_arcs, in_arcs = [], []
    for raw in _read(pairfile).splitlines():
        words = raw.split("#", 1)[0].split()
        if not words or words[0] not in ("out", "in"):
            continue
        if len(words) != 3:
            _die(f"pair lines read: out|in <tail> <head>, got {raw!r}")
        try:
            arc = (doc.index_of(words[1]), doc.index_of(words[2]))
        except InvalidInput as exc:
            _die(str(exc))
        (out_arcs if words[0] == "out" else in_arcs).append(arc)
    pair = BranchingPair(
        Branching(root=u, arcs=tuple(out_arcs), kind="out"),
        Branching(root=v, arcs=tuple(in_arcs), kind="in"),
    )
    violation = good_pair_violation(doc.flat, u, v, pair)
    if violation is None:
        click.echo("pair accepted", file=sys.stdout)
        sys.exit(0)
    click.echo(f"pair rejected: {violation}", file=sys.stdout)
    sys.exit(1)


@main.command(name="oracle")
@click.argument("source", default="-")
@click.option("--u", "u_name", default=None)
@click.option("--v", "v_name", default=None)
@click.option("--max-n", default=DEFAULT_MAX_N, show_default=True)
def oracle_cmd(source, u_name, v_name, max_n):
    """Exhaustive ground truth on a small document."""
    doc = _load(source)
    u, v = _roots(doc, u_name, v_name)
    flat = doc.flat
    if flat.n > max_n:
        _die(f"oracle bound exceeded: {flat.n} vertices > {max_n}; raise --max-n")
    try:
        pair = oracle_good_pair(flat, u, v, max_n=max_n)
    except _ERRORS as exc:
        _die(str(exc))
    if pair is None:
        click.echo("NO\nreason exhaustive-search", file=sys.stdout)
        sys.exit(1)
    click.echo("\n".join(["YES"] + _pair_lines(doc, pair)), file=sys.stdout, color=True)
    sys.exit(0)


_GEN_CHOICES = (
    "a",
    "b",
    "c",
    "d",
    "e4",
    "e5",
    "f",
    "g",
    "kind-a",
    "kind-b",
    "near-miss",
    "random-composition",
    "random-qt",
    "two-arc-strong",
)


@main.command(name="gen")
@click.option("--family", required=True, type=click.Choice(_GEN_CHOICES))
@click.option("--t", default=2, show_default=True, help="independent block size")
@click.option("--back-arc", is_flag=True, help="families a and b: add the return arc")
@click.option("--arcs", default=0, show_default=True, help="family c: middle arcs")
@click.option("--tu", default=2, show_default=True)
@click.option("--ku", default=1, show_default=True)
@click.option("--tv", default=2, show_default=True)
@click.option("--kv", default=1, show_default=True)
@click.option("--head", default=1, show_default=True, help="families e5/f: head part size")
@click.option("--seed", default=0, show_default=True)
@click.option("--n", default=6, show_default=True)
@click.option("--index", default=0, show_default=True, help="near-miss member index")
def gen_cmd(family, t, back_arc, arcs, tu, ku, tv, kv, head, seed, n, index):
    """Write an instance document for a blocked family or a random class."""
    try:
        doc = _generate(
            family, t, back_arc, arcs, tu, ku, tv, kv, head, seed, n, index
        )
    except _ERRORS as exc:
        _die(str(exc))
    click.echo(emit_document(doc), nl=False, file=sys.stdout)


def _generate(
    family, t, back_arc, arcs, tu, ku, tv, kv, head, seed, n, index
) -> InputDocument:
    from . import families
    heads = {
        1: families.singleton(),
        2: families.Digraph(2, [(0, 1), (1, 0)]),
    }
    if family in ("e5", "f") and head not in heads:
        raise InvalidInput(f"--head must be 1 or 2, not {head}")
    if family == "a":
        comp, u, v = families.family_a(back_arc)
    elif family == "b":
        comp, u, v = families.family_b(t, back_arc)
    elif family == "c":
        comp, u, v = families.family_c(t, arcs)
    elif family == "d":
        comp, u, v = families.family_d(tu, ku, tv, kv)
    elif family == "e4":
        comp, u, v = families.family_e4(t, tu, ku)
    elif family == "e5":
        comp, u, v = families.family_e5(heads[head], t, tu, ku)
    elif family == "f":
        comp, u, v = families.family_f(heads[head], ("both",) * head, tu, ku)
    elif family == "g":
        comp, u, v = families.family_g()
    elif family == "kind-a":
        g, w = families.kind_a_instance(seed)
        return flat_document(g, roots=(w.a, w.b))
    elif family == "kind-b":
        g, w = families.kind_b_instance(seed)
        return flat_document(g, roots=(w.a, w.b))
    elif family == "near-miss":
        members = list(families.near_miss_members(index + 1))
        if not 0 <= index < len(members):
            raise InvalidInput(f"near-miss index {index} out of range")
        comp, u, v, _ = members[index]
    elif family == "random-composition":
        comp = families.random_composition(seed)
        return composition_document(comp)
    elif family == "random-qt":
        return flat_document(families.random_quasi_transitive(seed, n))
    elif family == "two-arc-strong":
        return flat_document(
            families.random_two_arc_strong_semicomplete(seed, n)
        )
    else:  # pragma: no cover - click restricts choices
        raise InvalidInput(f"unknown family {family!r}")
    return composition_document(comp, roots=(u, v))


@main.command(name="crosscheck")
@click.option(
    "--exhaustive-semicomplete",
    "semi_n",
    type=int,
    default=None,
    help="all semicomplete digraphs up to this many vertices",
)
@click.option("--tournaments", default=0, show_default=True)
@click.option("--compositions", type=int, default=None)
@click.option("--start-seed", default=0, show_default=True)
@click.option("--qt-exhaustive", type=int, default=None)
@click.option("--qt-samples", default=0, show_default=True)
@click.option("--qt-sample-n", default=6, show_default=True)
@click.option("--file", "source", default=None, help="crosscheck one document")
def crosscheck_cmd(
    semi_n,
    tournaments,
    compositions,
    start_seed,
    qt_exhaustive,
    qt_samples,
    qt_sample_n,
    source,
):
    """Compare engines against the exhaustive oracle; nonzero on mismatch."""
    from .crosscheck import (
        check_target,
        sweep_compositions,
        sweep_quasi_transitive,
        sweep_semicomplete,
    )
    ran = False
    bad = 0

    def report(label, instances, pairs, issues):
        nonlocal ran, bad
        if not pairs:
            _die(f"nothing to check: the {label} sweep has no root pair")
        ran = True
        bad += len(issues)
        click.echo(
            f"{label}: {instances} instances, {pairs} root pairs, "
            f"{len(issues)} mismatches",
            file=sys.stdout,
        )
        for issue in issues[:10]:
            click.echo(f"  {issue}", file=sys.stdout)

    if semi_n is not None:
        if semi_n > 4 or tournaments > 5:
            _die("exhaustive bound too large for the oracle; at most 4 (tournaments 5)")
        report("semicomplete", *sweep_semicomplete(semi_n, tournaments))
    if compositions is not None:
        report("compositions", *sweep_compositions(compositions, start_seed))
    if qt_exhaustive is not None or qt_samples:
        ex = qt_exhaustive or 0
        if ex > 4 or not 1 <= qt_sample_n <= DEFAULT_MAX_N:
            _die("quasi-transitive exhaustive bound is 4, samples 1 to 9 vertices")
        report(
            "quasi-transitive",
            *sweep_quasi_transitive(ex, qt_samples, qt_sample_n),
        )
    if source is not None:
        doc = _load(source)
        if doc.flat.n > DEFAULT_MAX_N:
            _die(f"document too large for the oracle ({doc.flat.n} vertices)")
        pairs, issues = check_target(doc.target)
        report(source, 1, pairs, issues)
    if not ran:
        _die("nothing to check: pass at least one sweep flag")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
