"""What a `qsolv` process loads, and the lazy package namespace.

Each command runs in a fresh ``python -S`` interpreter with ``src`` on
``sys.path``, so the set of ``qsolv.*`` modules it leaves in
``sys.modules`` is exactly what the command imported.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qsolv

SRC = Path(qsolv.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

# What every command loads: the package, the driver and what parsing needs.
PARSE = {"qsolv", "qsolv.cli", "qsolv.errors", "qsolv.params", "qsolv.presentation"}

RUN = """\
import io, json, sys
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from qsolv.cli import main
with redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[2:])
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "qsolv"),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""

# The names `import qsolv` exported before the package became lazy, by the
# module each was imported from.  The family builders now live in
# qsolv.families and still resolve from qsolv.presentation.
EXPORTS = {
    "errors": ("AdRootError", "FamilyError", "LatticeError", "LocalizationError",
               "ParseError", "PresentationError", "QsolvError", "RepeatedRootError",
               "RewriteBudgetError", "SpecializationError"),
    "params": ("FracElem", "LaurentPoly", "UnitMonomial", "as_field_element",
               "gamma_torsionfree", "unit_product"),
    "presentation": ("Finding", "Presentation", "ValidationReport",
                     "builtin_presentation", "quantum_affine", "quantum_matrices",
                     "quantum_plane", "quantum_weyl", "rank2", "validate_presentation"),
    "normalform": ("NFElement", "delta_apply", "nf_mul", "q_binomial", "q_integer",
                   "q_leibniz_expand", "skew_action", "tau_apply"),
    "weights": ("element_weight", "is_homogeneous", "monomial_weight",
                "split_ideal_generators", "weight_components"),
    "adjoint": ("AdSpectrum", "LocElement", "ad_apply", "ad_eigencomponents",
                "ad_minimal_polynomial", "difference_set", "factor_over_differences",
                "loc_element", "replacement_generator"),
    "torus": ("CenterDescription", "LatticeSubgroup", "TorusPresentation",
              "center_lattice", "commutation_factor", "compatible_basis",
              "root_of_unity_structure", "torus_normal_scalar", "torus_of_presentation"),
    "strat": ("Rank2Strata", "StratumDescriptor", "admissible_compositions",
              "classify_affine_prime", "stratify_affine", "stratify_rank2"),
    "special": ("CycNumber", "SpecTarget", "classify_specialization",
                "cyclotomic_polynomial", "is_central_at", "rational_torsionfree",
                "root_of_unity_witness", "specialize_presentation"),
    "cli": ("parse_element", "parse_presentation", "print_presentation"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
SUBMODULES = ("adjoint", "cli", "densepoly", "errors", "families", "intlinalg",
              "normalform", "params", "presentation", "special", "strat", "torus",
              "weights")


def loaded_by(statement):
    """The qsolv modules a fresh interpreter holds after one statement."""
    code = (f"import json, sys; sys.path.insert(0, sys.argv[1]); {statement}; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'qsolv']))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout))


def run_fresh(*argv):
    done = subprocess.run(
        [sys.executable, "-S", "-c", RUN, str(SRC), *argv],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.alg"
    path.write_text("algebra T\nparams q\ngens k1 laurent, k2 laurent, k3 laurent\n"
                    "commute k1 k2 : q^2\ncommute k2 k3 : q^-1\n")
    return str(path)


@pytest.fixture
def negative_file(tmp_path):
    path = tmp_path / "negative.alg"
    path.write_text("algebra N\nparams q\ngens x poly, y poly\ncommute x y : -q\n")
    return str(path)


@pytest.mark.parametrize("argv, code, extra", [
    (["validate", str(DATA / "matrices2.alg")], 0, set()),
    (["validate", str(DATA / "weight_mismatch.alg")], 1, set()),
    (["specialize", str(DATA / "weyl1.alg"), "--root-of-unity", "6"], 1,
     {"qsolv.densepoly", "qsolv.special"}),
    (["specialize", str(DATA / "plane.alg"), "--param", "q=2"], 0,
     {"qsolv.densepoly", "qsolv.special"}),
    (["compositions", "3"], 0, {"qsolv.densepoly", "qsolv.strat"}),
    (["stratify", str(DATA / "rank2.alg")], 0,
     {"qsolv.densepoly", "qsolv.strat", "qsolv.normalform"}),
    (["stratify", str(DATA / "affine3.alg")], 0,
     {"qsolv.densepoly", "qsolv.strat", "qsolv.torus", "qsolv.intlinalg"}),
    (["weights", str(DATA / "plane.alg"), "x*y + 2*x"], 0,
     {"qsolv.weights", "qsolv.normalform"}),
    (["adjoint", str(DATA / "weyl1.alg"), "y", "x^2"], 0,
     {"qsolv.adjoint", "qsolv.normalform"}),
], ids=["validate", "validate-fail", "specialize-zeta", "specialize-q", "compositions",
        "stratify", "stratify-affine", "weights", "adjoint"])
def test_command_loads_only_what_it_runs(argv, code, extra):
    result = run_fresh(*argv)
    assert result["code"] == code
    assert set(result["modules"]) == PARSE | extra
    assert not result["dataclasses"]


def test_center_loads_only_what_it_runs(torus_file):
    result = run_fresh("center", torus_file)
    assert result["code"] == 0
    assert result["stdout"].startswith("G = <")
    assert set(result["modules"]) == PARSE | {"qsolv.torus", "qsolv.intlinalg"}
    assert not result["dataclasses"]


def test_validate_loads_the_lattices_only_for_a_negative_unit(negative_file):
    # Q2 needs an integer kernel only when some unit is negative
    result = run_fresh("validate", negative_file)
    assert result["code"] == 0
    assert set(result["modules"]) == PARSE | {"qsolv.intlinalg"}


def test_parse_path_modules_load_no_algorithm():
    params = {"qsolv", "qsolv.errors", "qsolv.params"}
    assert loaded_by("import qsolv.params") == params
    assert loaded_by("import qsolv.presentation") == params | {"qsolv.presentation"}


def test_building_an_element_loads_the_engine():
    assert "qsolv.normalform" in loaded_by(
        "from qsolv.presentation import Presentation; "
        "Presentation('A', (), ('x',), 1).gen(0)")


def test_presentation_keeps_its_other_attribute_errors():
    from qsolv import presentation

    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        presentation.frobnicate  # noqa: B018


def test_validate_skips_the_algorithm_modules():
    loaded = set(run_fresh("validate", str(DATA / "plane.alg"))["modules"])
    for name in ("adjoint", "special", "strat", "torus", "weights", "densepoly"):
        assert f"qsolv.{name}" not in loaded


def test_all_is_the_export_list():
    assert sorted(qsolv.__all__) == sorted(name for _, name in NAMES)
    assert len(qsolv.__all__) == len(set(qsolv.__all__)) == 74


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_module_attribute(module, name):
    value = getattr(qsolv, name)
    assert value is getattr(importlib.import_module(f"qsolv.{module}"), name)
    assert vars(qsolv)[name] is value  # cached after the first access


def test_submodules_are_attributes():
    for name in SUBMODULES:
        module = getattr(qsolv, name)
        assert isinstance(module, types.ModuleType)
        assert module is sys.modules[f"qsolv.{name}"]


def test_dir_lists_every_name():
    listed = dir(qsolv)
    assert {name for _, name in NAMES} <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        qsolv.frobnicate  # noqa: B018
    assert not hasattr(qsolv, "__main__")


def test_import_qsolv_loads_no_module():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qsolv; "
            "print(sorted(m for m in sys.modules if m.startswith('qsolv')))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['qsolv']"
