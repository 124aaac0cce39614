"""Every numeric flag of every action, taken from the parser itself, run with
nan, +-inf, 0 and -1 on cheap base arguments.  Each run is either bad input
(exit 2: one JSON error line or an argparse usage error naming the flag, and
no file left behind) or a success whose outputs hold only finite numbers."""

import json
import math
import re

import pytest

from discgrowth import cli

VALUES = ("nan", "inf", "-inf", "0", "-1")

# one cheap run of each action; the probed flag is appended, so it overrides
# a value given here
BASES = {
    ("scaffold",): "--p1 2 --p2 3 --generations 1 --g1 3 --log-c 3.2 --out s.json --csv-out s.csv",
    ("profile",): "--scaffold {scaffold} --samples-per-branch 4 --out p.csv --junctions-out j.json",
    ("riesz",): "--scaffold {scaffold} --ceiling 200 --out c.jsonl --summary-out r.json",
    ("series", "reference"): "--variant doubling --lambda 1 --sigma 2 --out ser.json --trace tr.csv",
    ("logderiv", "windows"): "--out w.json",
    ("logderiv", "certificate"): "--g-n 6,9 --out c.json",
    ("ode", "predict"): "--p1 2 --p2 4 --p 4",
    ("ode", "exponents"): "--k 2 --p1 5 --p2 6",
    ("ode", "solve"): "--degree 200 --audit-p1 3 --audit-p2 3 --out o.json --samples-csv s.csv",
    ("report",): "--inputs {scaffold} --out r.md --csv-out r.csv",
}

# the doubling trace from k = 0 starts at r_0, below the first break, where
# nu = 0 and log mu = 0: its nu_log and log_mu (log log mu) columns hold an
# exact -inf there
EXACT_INFINITIES = {"series reference --trace-k-lo=0": {"-inf"}}


def _leaves(parser, path=()):
    """(command words, parser) of every action the CLI runs."""
    if parser._subparsers is None:
        yield path, parser
        return
    for name, child in parser._subparsers._group_actions[0].choices.items():
        yield from _leaves(child, path + (name,))


LEAVES = dict(_leaves(cli.build_parser()))


def _numeric_flags(parser) -> list[str]:
    """Every flag whose value goes through a type: the int and float flags,
    and the number lists ``--g-n`` and ``--estimate``."""
    return [a.option_strings[0] for a in parser._actions if a.option_strings and a.type is not None]


def _non_finite(text: str) -> list[str]:
    """The tokens of an output that read as a non-finite float."""
    out = []
    for tok in re.split(r'[\s,:"\[\]{}|]+', text):
        try:
            x = float(tok)
        except ValueError:
            continue
        if not math.isfinite(x):
            out.append(tok)
    return out


def _is_json_error(line: str) -> bool:
    try:
        return set(json.loads(line)) == {"error", "message"}
    except ValueError:
        return False


def test_every_action_has_a_base():
    assert set(LEAVES) == set(BASES)


def test_float_flags_take_finite_values():
    types = {a.type for p in LEAVES.values() for a in p._actions}
    assert cli._finite in types and float not in types


@pytest.fixture(scope="module")
def scaffold_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("probe") / "s.json"
    assert cli.main(["scaffold", "--p1", "2", "--p2", "3", "--generations", "2", "--g1", "3",
                     "--log-c", "3.2", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("path", sorted(BASES), ids=" ".join)
def test_numeric_flags_are_bad_input_or_finite(path, scaffold_file, tmp_path, monkeypatch, capsys):
    base = [*path, *BASES[path].format(scaffold=scaffold_file).split()]
    faults = []
    for flag in _numeric_flags(LEAVES[path]):
        for value in VALUES:
            cwd = tmp_path / f"{flag}={value}"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            code = cli.main([*base, f"{flag}={value}"])
            out, err = capsys.readouterr()
            left = sorted(p.name for p in cwd.iterdir())
            run = f"{' '.join(path)} {flag}={value}"
            if code == 2:
                lines = err.splitlines()
                usage = any(f"error: argument {flag}" in line for line in lines)
                one_json = len(lines) == 1 and _is_json_error(lines[0])
                if not (usage or one_json) or left:
                    faults.append(f"{run}: exit 2 with stderr {err!r}, files {left}")
            elif code == 0:
                bad = _non_finite(out) + [t for name in left for t in _non_finite((cwd / name).read_text())]
                if bad and not set(bad) <= EXACT_INFINITIES.get(run, set()):
                    faults.append(f"{run}: exit 0 with non-finite outputs {bad[:3]}")
            else:
                faults.append(f"{run}: exit {code}: {err.strip()}")
    assert faults == []
