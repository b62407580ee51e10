"""The tolerance table: every cut is a named constant, and none is a parameter.

dlgibbs.tolerances holds the package's numerical cuts as plain literals.
These guards keep it that way: no small float literal elsewhere in the
package or in the dense test references, no function that takes a
tolerance or a callable hook, and one pinned value per name, so changing a
cut shows up as an edit here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dlgibbs
from dlgibbs import tolerances

PACKAGE = Path(dlgibbs.__file__).resolve().parent
REFERENCE = Path(__file__).resolve().parent / "reference.py"

TABLE = {
    "HERMITIAN_INPUT_TOL": 1e-10,
    "RECONSTRUCTION_TOL": 1e-8,
    "NORM_SLACK": 1e-12,
    "GAUGE_PIVOT": 1e-12,
    "BOHR_SPLIT": 1e-9,
    "COMMUTATOR_CUT": 1e-10,
    "GROUND_CLUSTER_WIDTH": 1e-8,
    "DETAILED_BALANCE_TOL": 1e-8,
    "POSITIVE_EIGENVALUE_CUT": 1e-8,
    "KERNEL_CUT": 1e-9,
    "MIN_STATE_WEIGHT": 1e-14,
    "CPTP_TOL": 1e-9,
    "PROBE_NORM_FLOOR": 1e-12,
    "COHERENT_PART_CUT": 1e-12,
    "LOCALITY_TOL": 1e-10,
    "DENSITY_MATRIX_TOL": 1e-10,
    "OPEN_GAP_FLOOR": 1e-9,
    "VACUOUS_NORM2": 1e-24,
    "ZERO_ROUND_NORM2": 1e-24,
    "CONTRACTION_SLACK": 1e-8,
    "STATIONARITY_TOL": 1e-10,
    "PROJECTED_PROBE_FLOOR": 1e-14,
    "GAP_ORDER_SLACK": 1e-8,
    "UNIT_FACTOR_SLACK": 1e-9,
    "PARENT_TERM_PSD_TOL": 1e-10,
    "TERM_GROUND_WIDTH": 1e-9,
    "IDEMPOTENCE_TOL": 1e-10,
    "FRUSTRATION_CUT": 1e-8,
    "UNIT_SINGULAR_SLACK": 1e-8,
    "MIN_CERTIFIED_GAP": 1e-8,
    "SINGULAR_BOUND_SLACK": 1e-9,
    "GAMMA_STAR_MARGIN": 1e-12,
    "DECADE_SLACK": 1e-12,
    "SCHEDULE_END_TOL": 1e-12,
    "MIX_VIOLATION_SLACK": 1e-8,
    "VIOLATION_SLACK": 1e-9,
    "PARENT_FRUSTRATION_CUT": 1e-9,
}


def _modules():
    return [
        importlib.import_module(f"dlgibbs.{m.name}") for m in pkgutil.iter_modules(dlgibbs.__path__)
    ]


def test_no_small_float_literal_outside_the_table():
    # tests/reference.py restates the package's rules densely; it reads the
    # same names, so a moved cut moves the reference with it.
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + [REFERENCE]:
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-5
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def _is_tolerance(name: str) -> bool:
    return name == "tol" or name.endswith("_tol") or name == "min_eig"


def _public_parameters():
    """(qualified name, parameter) of every public function, method and constructor."""
    for mod in _modules():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            callables = [(attr, obj)] if inspect.isfunction(obj) or inspect.isclass(obj) else []
            if inspect.isclass(obj):
                callables += [
                    (f"{attr}.{name}", fn)
                    for name, fn in vars(obj).items()
                    if inspect.isfunction(fn) and (not name.startswith("_") or name == "__init__")
                ]
            for name, fn in callables:
                try:
                    params = inspect.signature(fn).parameters.values()
                except (TypeError, ValueError):
                    continue
                for p in params:
                    yield f"{mod.__name__}.{name}", p


def test_no_public_callable_takes_a_tolerance():
    found = [f"{where}({p.name})" for where, p in _public_parameters() if _is_tolerance(p.name)]
    assert found == []


def test_no_public_parameter_or_field_is_a_callable_hook():
    # A callable argument is an extension point; each has to name its caller.
    # Annotations are strings here (postponed evaluation), so they are read
    # as text.
    found = [
        f"{where}({p.name})"
        for where, p in _public_parameters()
        if "Callable" in str(p.annotation)
    ]
    for mod in _modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or not dataclasses.is_dataclass(obj):
                continue
            found += [
                f"{mod.__name__}.{attr}.{f.name}"
                for f in dataclasses.fields(obj)
                if not f.name.startswith("_") and "Callable" in str(f.type)
            ]
    assert found == []


def test_the_table_holds_literals_only():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    body = tree.body[1:]  # after the docstring
    assert all(
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.value, ast.Constant)
        for node in body
    )
    names = {name for name in vars(tolerances) if not name.startswith("_")}
    assert names == set(TABLE)


@pytest.mark.parametrize("name,value", sorted(TABLE.items()))
def test_table_value_is_pinned(name, value):
    assert getattr(tolerances, name) == value


def test_former_module_constants_read_the_table():
    from dlgibbs import kms, linalg, parent

    # Detailed balance is checked in one place, build_parent.
    assert parent.DETAILED_BALANCE_TOL == tolerances.DETAILED_BALANCE_TOL
    assert not hasattr(kms, "DETAILED_BALANCE_TOL")
    assert kms._MIN_EIG == tolerances.MIN_STATE_WEIGHT
    assert parent.LOCALITY_TOL == tolerances.LOCALITY_TOL
    assert linalg._RECON_TOL == tolerances.RECONSTRUCTION_TOL
    assert linalg._NORM_SLACK == tolerances.NORM_SLACK
