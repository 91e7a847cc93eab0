"""The value classes, the lazily loaded package namespace, arguments of the
wrong type, and what one CLI command imports."""
import copy
import json
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import duckwords
from duckwords import (
    CountTriangle,
    HookConfig,
    IntPolynomial,
    InvalidInput,
    RewrittenDuckWord,
    UnderlinedDuckWord,
    ValidityReport,
)

# every record class, each built twice from fresh containers, with its repr
RECORDS = [
    (lambda: HookConfig(tuple([2, 1, 3]), tuple([(1, 3)])),
     "HookConfig(perm=(2, 1, 3), hooks=((1, 3),))"),
    (lambda: ValidityReport(True, "none"),
     "ValidityReport(valid=True, failed_condition='none', witness=None)"),
    (lambda: ValidityReport(False, "iii", tuple([(1, 3), (2, 4)])),
     "ValidityReport(valid=False, failed_condition='iii', witness=((1, 3), (2, 4)))"),
    (lambda: UnderlinedDuckWord("XXYYZZ", frozenset([4])),
     "UnderlinedDuckWord(word='XXYYZZ', underlines=frozenset({4}))"),
    (lambda: RewrittenDuckWord("UD", tuple([0, 0]), tuple([False, False])),
     "RewrittenDuckWord(letters='UD', circle_counts=(0, 0), underline_flags=(False, False))"),
    (lambda: CountTriangle(tuple([(1,), (2, 3)])), "CountTriangle(rows=((1,), (2, 3)))"),
    (lambda: IntPolynomial(tuple([1, 2])), "IntPolynomial(coefficients=(1, 2))"),
    # built by the per-class _unchecked, without the constructor
    (lambda: next(duckwords.enumerate_underlined(3, 2)),
     "UnderlinedDuckWord(word='XXXYYYZZZ', underlines=frozenset({5, 6}))"),
    (lambda: duckwords.rewrite(duckwords.underline_all("XXXYYYZZZ")),
     "RewrittenDuckWord(letters='UUUDDD', circle_counts=(2, 0, 0, 0, 0, 0), "
     "underline_flags=(False, True, True, False, False, False))"),
    (lambda: duckwords.decode(RewrittenDuckWord.parse("(U)u(D)uDD")),
     "UnderlinedDuckWord(word='XXYYXZYZZ', underlines=frozenset({4, 7}))"),
]

# the public names of the package
PACKAGE_NAMES = {
    "InvalidInput", "ResourceLimit",
    "Permutation", "avoids_312", "descent_table", "enumerate_av312", "normalize",
    "parse_permutation",
    "HookConfig", "ValidityReport", "check_valid", "enumerate_vhcs", "hooks_projection",
    "is_reduced", "make_config", "reduce_config", "verify_eq1",
    "RewrittenDuckWord", "UnderlinedDuckWord", "decode", "duck_index", "enumerate_3d_dyck",
    "enumerate_dyck", "enumerate_rewritten", "enumerate_underlined", "psi", "rewrite",
    "underline_all",
    "phi", "phi_inverse", "phi_prime", "phi_prime_inverse", "tennis_lawns",
    "CountTriangle", "IntPolynomial", "catalan", "catalan3d", "duck_k1_oracle",
    "duck_triangle", "f_poly", "h_poly", "load_golden_triangle", "tennis_ball_weighted",
    "underlined_triangle", "verify_identities",
}


@pytest.mark.parametrize("make, text", RECORDS)
def test_record_is_a_frozen_value(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == text
    for field in re.findall(r"(\w+)=", text):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_differ():
    values = [make() for make, _ in RECORDS]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert (x == y) is (i == j)
    # the same field values in two classes, or as a tuple, are not equal
    assert IntPolynomial(()) != CountTriangle(())
    config = HookConfig((2, 1, 3), ((1, 3),))
    assert config != ((2, 1, 3), ((1, 3),)) and config != (2, 1, 3)
    assert ValidityReport(True, "none") != ValidityReport(True, "none", ())


def test_count_triangle_checks_its_rows():
    with pytest.raises(InvalidInput, match="row 2 has 1 entries"):
        CountTriangle(((1,), (2,)))
    with pytest.raises(InvalidInput, match="negative"):
        CountTriangle(((1,), (2, -3)))
    with pytest.raises(InvalidInput, match="row 2 has an entry that is not an int"):
        CountTriangle(((1,), (2, "a")))
    with pytest.raises(InvalidInput, match="not sequences"):
        CountTriangle(((1,), 2))
    # the rows are stored as tuples, whatever sequences they came in
    assert CountTriangle([[1], [2, 3]]) == CountTriangle(((1,), (2, 3)))


def test_package_names():
    assert len(duckwords.__all__) == len(PACKAGE_NAMES) == 45
    assert set(duckwords.__all__) == PACKAGE_NAMES
    listed = {n for n in dir(duckwords)
              if not n.startswith("_") and not isinstance(getattr(duckwords, n), types.ModuleType)}
    assert listed == PACKAGE_NAMES
    namespace: dict = {}
    exec("from duckwords import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE_NAMES
    assert namespace["phi"] is duckwords.phi is duckwords.maps.phi
    with pytest.raises(AttributeError, match="nope"):
        duckwords.nope  # noqa: B018
    assert not hasattr(duckwords, "nope")


# a size that is not an int, or a word or lawn of the wrong type; each call
# is made in full, so a generator is drawn dry
WRONG_TYPES = {
    "enumerate_dyck(2.5)": lambda: list(duckwords.enumerate_dyck(2.5)),
    "enumerate_3d_dyck(2.5)": lambda: list(duckwords.enumerate_3d_dyck(2.5)),
    "enumerate_3d_dyck(True)": lambda: list(duckwords.enumerate_3d_dyck(True)),
    "enumerate_av312(2.5)": lambda: list(duckwords.enumerate_av312(2.5)),
    "avoids_312((0, 1))": lambda: duckwords.avoids_312((0, 1)),
    "avoids_312((1, 1))": lambda: duckwords.avoids_312((1, 1)),
    "avoids_312((3,))": lambda: duckwords.avoids_312((3,)),
    "avoids_312((2.0, 1))": lambda: duckwords.avoids_312((2.0, 1)),
    "avoids_312(None)": lambda: duckwords.avoids_312(None),
    "enumerate_underlined(2.5, 0)": lambda: list(duckwords.enumerate_underlined(2.5, 0)),
    "enumerate_underlined(2, 0.0)": lambda: list(duckwords.enumerate_underlined(2, 0.0)),
    "enumerate_rewritten(2.5, 0)": lambda: list(duckwords.enumerate_rewritten(2.5, 0)),
    "phi_inverse(None)": lambda: duckwords.phi_inverse(None),
    "duck_index(None)": lambda: duckwords.duck_index(None),
    "underline_all(None)": lambda: duckwords.underline_all(None),
    "psi(5, 1)": lambda: duckwords.psi(5, 1),
    "psi({1}, 1.5)": lambda: duckwords.psi({1}, 1.5),
    "tennis_lawns(2.0)": lambda: duckwords.tennis_lawns(2.0),
    "duck_triangle(True)": lambda: duckwords.duck_triangle(True),
    "catalan(3.0)": lambda: duckwords.catalan(3.0),
    "duck_k1_oracle(2.5)": lambda: duckwords.duck_k1_oracle(2.5),
    "verify_eq1(2.5)": lambda: duckwords.verify_eq1(2.5),
    "verify_eq1(True)": lambda: duckwords.verify_eq1(True),
    "enumerate_vhcs((5, 1, 9))": lambda: list(duckwords.enumerate_vhcs((5, 1, 9))),
    "enumerate_vhcs((2.5, 1, 3))": lambda: list(duckwords.enumerate_vhcs((2.5, 1, 3))),
    "enumerate_vhcs((2, 2, 1))": lambda: list(duckwords.enumerate_vhcs((2, 2, 1))),
    "enumerate_vhcs(None)": lambda: list(duckwords.enumerate_vhcs(None)),
    "CountTriangle(None)": lambda: CountTriangle(None),
    "CountTriangle(((1.5,),))": lambda: CountTriangle(((1.5,),)),
    "CountTriangle(((True,),))": lambda: CountTriangle(((True,),)),
    "CountTriangle.from_csv(None)": lambda: CountTriangle.from_csv(None),
    "CountTriangle.from_csv(b'1')": lambda: CountTriangle.from_csv(b"1"),
    "IntPolynomial(None)": lambda: IntPolynomial(None),
    "IntPolynomial(('a',))": lambda: IntPolynomial(("a",)),
    "IntPolynomial((1.5,))": lambda: IntPolynomial((1.5,)),
    "IntPolynomial((True,))": lambda: IntPolynomial((True,)),
    "IntPolynomial((1, 2))(2.5)": lambda: IntPolynomial((1, 2))(2.5),
    "IntPolynomial((1, 2))(None)": lambda: IntPolynomial((1, 2))(None),
    "IntPolynomial((1, 2))(True)": lambda: IntPolynomial((1, 2))(True),
    "IntPolynomial((1, 2)).shift(None)": lambda: IntPolynomial((1, 2)).shift(None),
    "IntPolynomial((1, 2)).shift(0.5)": lambda: IntPolynomial((1, 2)).shift(0.5),
    "IntPolynomial((1, 2)).shift(True)": lambda: IntPolynomial((1, 2)).shift(True),
}


@pytest.mark.parametrize("call", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_wrong_types_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("argv, printed, needed, unneeded", [
    (["count", "catalan3d", "--k", "3"], "42", "duckwords.counts",
     ("dataclasses", "duckwords.hooks", "duckwords.maps", "duckwords.words")),
    (["count", "redvhc", "--k", "4", "--n", "12"], "462", "duckwords.counts",
     ("duckwords.hooks", "duckwords.perms", "json")),
    (["map", "psi", "1,2"], "UUUDDD", "duckwords.words",
     ("duckwords.hooks", "duckwords.maps", "duckwords.perms", "json")),
], ids=["count", "count-redvhc", "map-psi"])
def test_command_imports_only_what_it_runs(argv, printed, needed, unneeded):
    # a fresh interpreter; whatever `site` loads is in `before`
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from duckwords.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    out, summary = proc.stdout.splitlines()
    code, loaded = json.loads(summary)
    assert out == printed and code == 0
    assert needed in loaded
    for name in unneeded:
        assert name not in loaded
