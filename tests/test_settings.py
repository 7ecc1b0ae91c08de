"""Each setting has one home: a ratchet on the number of settable values.
The simulation's defaults are written only in ``cli.GENERATE_DEFAULTS``;
the library takes every simulation value from its caller."""

import ast
import inspect
from pathlib import Path

import pytest

import tls_scope
from tls_scope.ensemble import EnsembleConfig
from tls_scope.pipeline import analyze_dataset
from tls_scope.spectro import coupled_pair_t1_map, default_sweep_plan, t1_map
from tls_scope.traces import extract_traces, link_tracks

#: Settable values under src/tls_scope when this ratchet was last moved.
#: Lower it when a value goes; a new knob has to pay for itself by
#: removing another.
MAX_SETTABLE = 16


def settable_values():
    """Every dataclass field with a default, and every defaulted parameter
    of a function whose name does not start with ``_``."""
    found = []
    for path in sorted(Path(tls_scope.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                found += [
                    f"{path.stem}.{node.name}.{st.target.id}"
                    for st in node.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None
                ]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args.posonlyargs + node.args.args
                defaulted = args[len(args) - len(node.args.defaults):] + [
                    a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if d is not None
                ]
                found += [f"{path.stem}.{node.name}({a.arg})" for a in defaulted]
    return found


def test_settable_values_do_not_grow():
    found = settable_values()
    assert len(found) <= MAX_SETTABLE, "\n".join(found)


@pytest.mark.parametrize("fn", [extract_traces, link_tracks, analyze_dataset, EnsembleConfig,
                                default_sweep_plan, t1_map, coupled_pair_t1_map])
def test_tracking_has_no_defaulted_parameter(fn):
    # The tracking rules are constants of traces; the survey's and the
    # panels' jump_limit and the film thickness are passed by each caller.
    # The simulation takes every value from its caller, and the defaults
    # of `generate` are written only in cli.GENERATE_DEFAULTS.
    params = inspect.signature(fn).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []

