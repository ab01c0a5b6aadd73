"""The per-subcommand parsers of ``cli.build_parser`` against the former eager
parser (``conftest.eager_build_parser``), which built all sixteen up front.

``cli.main`` runs with each builder in turn, at two terminal widths: the
exit code, stdout and stderr of every help text and of a battery of bad
command lines must be byte-identical, from a parser made for the call and
from the one the process keeps.  Every command line of the golden CLI cases
must parse to the same ``Namespace``.

A subcommand's parser read before it is parsed, by argparse when it registers
it or by a caller, builds itself and answers as the eager one; threads that
parse one new subcommand at once get the parser built once; and a build that
raises is run again in full.
"""

import argparse
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import bolalg.cli as cli

from .conftest import eager_build_parser
from .test_golden_cli import CASES

KEPT = cli.build_parser

HELP = [["--help"]] + [[name, "--help"] for name in cli._COMMANDS]

BAD = [
    [],                                                    # no command
    ["nope", "x.alg"],                                     # an unknown command
    ["verify"],                                            # a missing positional
    ["verify", "a.alg", "b.alg"],                          # an extra positional
    ["--json", "verify", "a.alg"],                         # --json before the command
    ["cohomology", "a.alg", "--adjoint", "--rep", "r.rep"],
    ["cohomology", "a.alg"],                               # neither --adjoint nor --rep
    ["verify", "a.alg", "--bogus"],                        # an unknown option
    ["maltsev-to-bol", "a.alg", "-o"],                     # -o with no value
]


def _outcome(monkeypatch, capsys, builder, argv):
    monkeypatch.setattr(cli, "build_parser", builder)
    with pytest.raises(SystemExit) as stop:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return stop.value.code, out, err


@pytest.mark.parametrize("columns", ["40", "80"])
@pytest.mark.parametrize("argv", HELP + BAD, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_errors_match_the_eager_parser(argv, columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", columns)
    expected = _outcome(monkeypatch, capsys, eager_build_parser, argv)
    assert expected[0] == (0 if "--help" in argv else 2)
    assert _outcome(monkeypatch, capsys, KEPT.__wrapped__, argv) == expected
    assert _outcome(monkeypatch, capsys, KEPT, argv) == expected


@pytest.mark.parametrize("argv", [argv for _, _, argv, _ in CASES],
                         ids=[case_id for case_id, *_ in CASES])
def test_every_golden_command_line_parses_as_before(argv):
    expected = eager_build_parser().parse_args(argv)
    assert KEPT.__wrapped__().parse_args(argv) == expected
    assert KEPT().parse_args(argv) == expected


def test_every_subcommand_parser_read_before_its_parse_answers_as_the_eager_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    eager = next(a for a in eager_build_parser()._actions if a.dest == "command").choices
    lazy = next(a for a in KEPT.__wrapped__()._actions if a.dest == "command").choices
    for name, parser in lazy.items():
        assert parser.prog == eager[name].prog
        assert parser.format_help() == eager[name].format_help()


@pytest.mark.parametrize("argv", HELP + BAD, ids=lambda argv: " ".join(argv) or "(none)")
def test_an_argparse_that_reads_each_new_parser_gets_the_eager_output(
        argv, monkeypatch, capsys):
    """As an argparse that checks each choice's help with the new subcommand
    parser's formatter when it registers it: the read builds that parser, and
    every output stays that of the eager parser."""
    add_parser = argparse._SubParsersAction.add_parser
    built = []

    def reading(self, name, **kwargs):
        parser = add_parser(self, name, **kwargs)
        parser.formatter_class(prog=parser.prog)
        built.append(parser._row is None)
        return parser

    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(monkeypatch, capsys, eager_build_parser, argv)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", reading)
    assert _outcome(monkeypatch, capsys, KEPT.__wrapped__, argv) == expected
    assert built == [True] * len(cli._COMMANDS)


def test_threads_parsing_one_new_subcommand_wait_for_its_build(monkeypatch):
    argv = ["cohomology", "a.alg", "--rep", "r.rep", "--json"]
    expected = eager_build_parser().parse_args(argv)
    add_argument = argparse._ActionsContainer.add_argument

    def slow(self, *args, **kwargs):
        time.sleep(0.002)  # lets the other threads run while the parser is built
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", slow)
    parser, start = KEPT.__wrapped__(), threading.Barrier(4)

    def parse(_):
        start.wait()
        try:
            return parser.parse_args(argv)
        except SystemExit as stop:
            return f"exit {stop.code}"

    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(parse, range(4))) == [expected] * 4


def test_a_build_that_raises_is_run_again_in_full(monkeypatch):
    argv = ["cohomology", "a.alg", "--adjoint"]
    reference = eager_build_parser()
    add_group = argparse._ActionsContainer.add_mutually_exclusive_group
    failures = [RuntimeError("interrupted build")]

    def failing_once(self, **kwargs):
        if failures:
            raise failures.pop()
        return add_group(self, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_mutually_exclusive_group",
                        failing_once)
    parser = KEPT.__wrapped__()
    with pytest.raises(RuntimeError, match="interrupted build"):
        parser.parse_args(argv)
    assert parser.parse_args(argv) == reference.parse_args(argv)
    monkeypatch.setenv("COLUMNS", "80")
    lazy = next(a for a in parser._actions if a.dest == "command").choices
    eager = next(a for a in reference._actions if a.dest == "command").choices
    assert lazy["cohomology"].format_help() == eager["cohomology"].format_help()


def test_the_parser_class_takes_argparse_positional_arguments():
    assert cli._Parser("bolalg").format_usage() == argparse.ArgumentParser("bolalg").format_usage()
