"""Every module-level function and class in `src/qal` is entered by a
command.

A fresh interpreter sets `sys.setprofile`, imports `qal` and runs COMMANDS
through `qal.cli.run` in process; a function whose code object is never
entered is unreached, and so is a class none of whose own functions is.
Code that only tests call belongs in `tests/oracles.py`: UNREACHED names the
few functions that stay in `src/qal` unreached, each with its reason.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qal

SRC = pathlib.Path(qal.__file__).resolve().parent

#: Explicit relations that are no sums of commutators, so the dual is built
#: by `annihilator` and ranked in the tensor algebra; not Koszul, so the
#: Euler check fails in degree 4.
PRESENTATION = {
    "n": 3,
    "generators": ["r1_2", "r2_1", "r1_3"],
    "relations": [
        {"terms": [{"word": ["r2_1", "r1_2"], "coeff": "-1"}]},
        {"terms": [{"word": ["r1_2", "r1_2"], "coeff": "-1"},
                   {"word": ["r1_3", "r1_2"], "coeff": "-1"},
                   {"word": ["r1_3", "r1_3"], "coeff": "-1"}]},
        {"terms": [{"word": ["r1_2", "r1_2"], "coeff": "-1"},
                   {"word": ["r1_2", "r2_1"], "coeff": "1"},
                   {"word": ["r1_3", "r1_2"], "coeff": "-1"}]},
    ],
}

#: (argv, exit code): every verify suite, hilbert, every basis kind with
#: --emit-dot on both sides of the triangle's diagonal, reduce, lah,
#: stirling, a presentation file, and two budget refusals.  FILE is the
#: PRESENTATION file.
COMMANDS = [
    (["verify", "pvh", "--n", "6"], 0),  # the c-commutation block of [6]
    (["verify", "pvh", "--family", "pfb", "--n", "4", "--format", "json"], 0),
    (["verify", "pvh", "--presentation", "FILE"], 0),
    (["verify", "degree2", "--family", "pb", "--n", "4"], 0),
    (["verify", "euler", "--family", "pvb", "--n", "3", "--max-degree", "4"],
     0),
    (["verify", "euler", "--family", "pfb", "--n", "5", "--max-degree", "4"],
     0),
    (["verify", "euler", "--presentation", "FILE", "--max-degree", "4",
      "--format", "json"], 1),
    (["verify", "psi", "--n", "4"], 0),
    (["verify", "coproduct", "--n", "4"], 0),
    (["verify", "lahstirling", "--n", "4"], 0),
    (["verify", "confluence", "--n", "5", "--trials", "10"], 0),
    (["hilbert", "--family", "pb", "--n", "4", "--format", "csv"], 0),
    (["basis", "chain-gangs", "--n", "4", "--degree", "1", "--emit-dot"], 0),
    (["basis", "updown", "--n", "4", "--degree", "3", "--emit-dot"], 0),
    (["basis", "down", "--n", "4", "--degree", "2", "--emit-dot"], 0),
    (["basis", "up", "--n", "4", "--degree", "3", "--emit-dot"], 0),
    (["reduce", "prune", "1>2,1>3,3>4"], 0),
    (["reduce", "lex", "2>1,3>1"], 0),
    (["lah", "--n", "4"], 0),
    (["stirling", "--n", "4", "--format", "json"], 0),
    (["basis", "down", "--n", "10000", "--degree", "5000"], 2),
    (["hilbert", "--family", "pvb", "--n", "21", "--max-degree", "4"], 2),
]

#: Functions no command enters, and why each stays in `src/qal`.
UNREACHED = {
    "cli.main": "the console script, which calls cli.run",
    "graph_basis._updown_pair_excluded":
        "Forest.is_updown_forest, which the benchmark's output check calls",
    # The benchmark's tracing wraps these by name; its traced gate fails
    # on a missing one.
    "pvh_checker.kernel_deg3": "traced by the benchmark",
    "pvh_checker.delta_a_columns": "traced by the benchmark",
    "pvh_checker.trivial_syzygies": "traced by the benchmark",
    "pvh_checker.project_to_infinitesimal": "traced by the benchmark",
    "quad_algebra.relation_blocks_rank": "traced by the benchmark",
    "quad_algebra.graded_dim": "traced by the benchmark",
}

#: Run in a fresh interpreter: argv[1] is the JSON list of command lines.
#: Prints the exit codes and the unreached functions and classes as JSON.
_SWEEP = """
import ast, contextlib, importlib, inspect, io, json, pkgutil, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import qal
import qal.cli

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()):
        exits.append(qal.cli.run(argv, out=io.StringIO()))
sys.setprofile(None)


def code(fn):  # of a function, method, classmethod or property getter
    fn = getattr(fn, "__func__", None) or getattr(fn, "fget", None) or fn
    return getattr(inspect.unwrap(fn), "__code__", None)


unreached = []
for info in pkgutil.iter_modules(qal.__path__):
    module = importlib.import_module("qal." + info.name)
    for node in ast.parse(inspect.getsource(module)).body:
        obj = getattr(module, getattr(node, "name", ""), None)
        if isinstance(node, ast.FunctionDef):
            own = {code(obj)}
        elif isinstance(node, ast.ClassDef):
            # reached when one of its own functions is: a method, or the
            # __init__ or __new__ a dataclass or named tuple generates
            own = set(map(code, vars(obj).values())) - {None}
        else:
            continue
        if own and entered.isdisjoint(own):
            unreached.append(info.name + "." + node.name)
print(json.dumps({"exits": exits, "unreached": unreached}))
"""


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("reach") / "presentation.json"
    path.write_text(json.dumps(PRESENTATION))
    argvs = [[str(path) if a == "FILE" else a for a in argv]
             for argv, _ in COMMANDS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SWEEP, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_exit_as_expected(sweep):
    assert dict(zip(map(" ".join, (a for a, _ in COMMANDS)), sweep["exits"])) \
        == {" ".join(argv): code for argv, code in COMMANDS}


def test_every_function_and_class_in_src_is_reached_by_a_command(sweep):
    assert set(sweep["unreached"]) == set(UNREACHED)


def test_only_cli_imports_graph_basis():
    """The dual-basis half of `qal` and the algebra half meet only in
    `cli` (and the package's `__init__`)."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {node.module or ""} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            else:
                continue
            if any(name.rpartition(".")[2] == "graph_basis" for name in names):
                importers.add(path.stem)
    assert importers == {"cli", "__init__"}
