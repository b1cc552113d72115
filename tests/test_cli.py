import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from closehecke.cli import build_parser, main
from closehecke.transfer import Tower

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fields_build_echoes_config(capsys):
    code, out = run_cli(capsys, "fields", "build", "--case", "unramified",
                        "--p", "2", "--l", "3", "--m", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "fields build"
    assert doc["config"]["p"] == 2 and doc["config"]["case"] == "unramified"
    assert doc["library_version"]
    assert doc["result"]["e"] == 1
    assert doc["result"]["E"]["ext"]["minimalPoly"] == [1, 1, 0, 1]


def test_fields_build_ramified_e(capsys):
    code, out = run_cli(capsys, "fields", "build", "--case", "ramified",
                        "--p", "3", "--l", "2", "--m", "1")
    doc = json.loads(out)
    assert code == 0 and doc["result"]["e"] == 2
    assert doc["result"]["E"]["m"] == 2


def test_cosets_enumerate(capsys):
    code, out = run_cli(capsys, "cosets", "enumerate", "--p", "2", "--m", "1",
                        "--mu-lo", "0", "--mu-hi", "0")
    doc = json.loads(out)
    assert code == 0 and doc["result"]["count"] == 6


def test_cosets_enumerate_lists_a_spread_window_of_an_extension_side(capsys):
    # |G|^2 of the ramified E side is over the default budget, the 12,960
    # labels of its spread <= 1 window are not
    code, out = run_cli(capsys, "cosets", "enumerate", "--side", "E", "--case", "ramified",
                        "--p", "3", "--l", "2", "--mu-lo", "0", "--mu-hi", "1", "--window", "1")
    assert code == 0 and json.loads(out)["result"]["count"] == 12960


def test_check_pass_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "check", "lemma-conv", "--p", "2", "--m", "1",
                      "--window", "1", "--samples", "4", "--seed", "1",
                      "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True
    assert {"command", "config", "library_version", "samples", "pass"} <= set(doc)


def test_config_error_exit_two(capsys):
    code = main(["check", "kaz-hom", "--p", "5", "--l", "5", "--m", "1"])
    assert code == 2


def test_byte_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "kaz-hom", "--p", "2", "--l", "3", "--m", "1",
            "--window", "1", "--samples", "2", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_hecke_and_kaz_pipeline(tmp_path, capsys):
    code, out = run_cli(capsys, "cosets", "enumerate", "--p", "3", "--m", "1",
                        "--mu-lo", "0", "--mu-hi", "1", "--window", "1")
    labels = json.loads(out)["result"]["labels"]
    el = {"side": "F", "l": 2, "k": 1, "terms": [{"label": labels[0], "coeff": [1]}]}
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(el))
    code, out = run_cli(capsys, "hecke", "convolve", "--p", "3", "--m", "1",
                        "--l", "2", "--a", str(fpath), "--b", str(fpath))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terms"]
    code, out = run_cli(capsys, "kaz", "map", "--p", "3", "--m", "1", "--l", "2",
                        "--in", str(fpath))
    assert code == 0 and json.loads(out)["result"]["side"] == "F'"


# a trivial block plus a free 3-cycle, with e acting by 2 on the trivial part
_TATE_MODULE = {"l": 3, "k": 1, "dim": 4,
                "T": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]],
                "action": {"e": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}
_RHO = {"l": 3, "k": 1, "dim": 1, "T": [[1]], "action": {"f": [[2]]}}


def test_tate_and_linkage_cli(tmp_path, capsys):
    mod = {"l": 3, "k": 1, "dim": 1, "T": [[1]], "action": {"e": [[2]]}}
    br = {"generators": {"e": "f"}}
    mp, rp, bp = tmp_path / "m.json", tmp_path / "r.json", tmp_path / "b.json"
    mp.write_text(json.dumps(mod))
    rp.write_text(json.dumps(_RHO))
    bp.write_text(json.dumps(br))
    code, out = run_cli(capsys, "tate", "cohomology", "--module", str(mp), "--i", "0")
    assert code == 0 and json.loads(out)["result"]["dim"] == 1
    code, out = run_cli(capsys, "linkage", "check", "--xi", str(mp),
                        "--rho", str(rp), "--br", str(bp))
    assert code == 0
    assert json.loads(out)["result"]["linked"] == {"0": True, "1": True}


def test_hecke_sigma_orbit_sum(tmp_path, capsys):
    # pi_(0,1) over the ramified extension, written directly in the wire
    # format (identity residue pairs at level em = 2)
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    lab = {"mu": [0, 1], "P": ident, "Q": ident, "level": 2}
    el = {"side": "E", "l": 2, "k": 1, "terms": [{"label": lab, "coeff": [1]}]}
    fpath = tmp_path / "e.json"
    fpath.write_text(json.dumps(el))
    code, out = run_cli(capsys, "hecke", "sigma", "--p", "3", "--m", "1",
                        "--l", "2", "--case", "ramified", "--in", str(fpath),
                        "--orbit-sum")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["terms"]) == 2
    code, out = run_cli(capsys, "hecke", "brauer", "--p", "3", "--m", "1",
                        "--l", "2", "--case", "ramified", "--in", str(fpath))
    assert code == 2  # not sigma-invariant: surfaced as a config-level error


def test_hecke_brauer_restricts_an_orbit_sum(tmp_path, capsys):
    # the orbit sum that `hecke sigma --orbit-sum` prints is sigma-invariant,
    # and `hecke brauer` restricts it as Tower.brauer does; pi_(0,2) = pi_F^(0,1)
    # on the ramified E has a nonzero restriction
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    lab = {"mu": [0, 2], "P": ident, "Q": ident, "level": 2}
    fpath, spath = tmp_path / "e.json", tmp_path / "sum.json"
    fpath.write_text(json.dumps({"side": "E", "l": 2, "k": 1,
                                 "terms": [{"label": lab, "coeff": [1]}]}))
    tower_args = ["--p", "3", "--m", "1", "--l", "2", "--case", "ramified"]
    code, out = run_cli(capsys, "hecke", "sigma", *tower_args, "--in", str(fpath),
                        "--orbit-sum")
    assert code == 0
    orbit_sum = json.loads(out)["result"]
    spath.write_text(json.dumps(orbit_sum))
    code, out = run_cli(capsys, "hecke", "brauer", *tower_args, "--in", str(spath))
    assert code == 0
    tower = Tower(3, 1, case="ramified", l=2)
    expected = tower.brauer(tower.alg["E"].from_json(orbit_sum))
    assert expected.terms and json.loads(out)["result"] == expected.to_json()


def test_hecke_sigma_prints_the_residue_action_labels(tmp_path, capsys):
    # sigma(pi) = zeta pi with zeta = -1 = 2 mod 3, so sigma(t[(0,1), I, I])
    # is printed as t[(0,1), diag(1, zeta), I], and the orbit sum as both
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    twisted = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    lab = {"mu": [0, 1], "P": ident, "Q": ident, "level": 2}
    image = {"mu": [0, 1], "P": twisted, "Q": ident, "level": 2}
    fpath = tmp_path / "e.json"
    fpath.write_text(json.dumps({"side": "E", "l": 2, "k": 1,
                                 "terms": [{"label": lab, "coeff": [1]}]}))
    args = ["hecke", "sigma", "--p", "3", "--m", "1", "--l", "2", "--case", "ramified",
            "--in", str(fpath)]
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert [t["label"] for t in json.loads(out)["result"]["terms"]] == [image]
    code, out = run_cli(capsys, *args, "--orbit-sum")
    assert code == 0
    assert [t["label"] for t in json.loads(out)["result"]["terms"]] == [lab, image]


_KAZ_MAP = ["kaz", "map", "--p", "2", "--l", "3", "--in", "in.json"]
_TATE = ["tate", "cohomology", "--module", "in.json", "--i", "0"]
_LINKAGE = ["linkage", "check", "--xi", "m.json", "--rho", "m.json", "--br", "in.json"]
_LAMBDA = ["check", "kaz-hom", "--p", "3", "--pair-mode", "equal-equal", "--lambda-image"]


def _element(mu, P, level=1, coeff=(1,)):
    label = {"mu": mu, "P": P, "Q": [[1, 0], [0, 1]], "level": level}
    return json.dumps({"l": 3, "terms": [{"label": label, "coeff": coeff}]})


@pytest.mark.parametrize("argv, content", [
    (["kaz", "map", "--p", "2", "--in", "missing.json"], None),
    (["kaz", "map", "--p", "2", "--in", "in.json"], "not json"),
    (["kaz", "map", "--p", "2", "--in", "in.json"], "{}"),
    (["check", "kaz-hom", "--p", "2", "--n", "0"], None),
    (_KAZ_MAP, '{"l": 3, "terms": 5}'),
    (_KAZ_MAP, '{"l": "x", "terms": []}'),
    (_KAZ_MAP, _element(mu=[0, 0], P=1)),
    (_KAZ_MAP, _element(mu=[0, 0], P=[[1, 0], [0, 0]])),
    (_KAZ_MAP, _element(mu=[1, 0], P=[[1, 0], [0, 1]])),
    (_KAZ_MAP, _element(mu=[0, 1], P=[[1, 0], [0, 1]], level=5)),
    (["check", "kaz-hom", "--p", "2", "--window", "-1", "--samples", "0"], None),
    (["check", "kaz-hom", "--p", "2", "--window", "0", "--samples", "-1"], None),
    (_TATE, '{"l": "x", "k": 1, "dim": 1, "T": [[1]]}'),
    (_TATE, '{"l": 2, "k": 1, "dim": 1, "T": 5}'),
    (_TATE, '{"l": 2, "k": 1, "dim": 2, "T": [[1]]}'),
    (_TATE, '{"l": 2, "k": 1, "dim": 1, "T": [[true]]}'),
    (_KAZ_MAP, _element(mu=[0, 0], P=[[1, 0], [0, 1]], coeff=True)),
    (_LINKAGE, '{"generators": {"e": [1]}}'),
    (_LINKAGE, '{"generators": 5}'),
    (_TATE + ["--out", "missing-dir/r.json"], '{"l": 3, "k": 1, "dim": 1, "T": [[1]]}'),
    (["cosets", "enumerate", "--p", "2", "--mu-lo", "2", "--mu-hi", "0"], None),
    (["check", "kaz-hom", "--p", "2", "--budget", "0", "--window", "1", "--samples", "1"],
     None),
    (["cosets", "enumerate", "--p", "2", "--pair-budget", "0"], None),
    (_LAMBDA + ["a,b"], None),
    (_LAMBDA + [","], None),
    (["fields", "build", "--p", "2", "--case", "unramified"], None),
    (["check", "kaz-hom", "--p", "2", "--l", "3", "--lambda-image", "1,1"], None),
], ids=["missing-file", "not-json", "missing-key", "n-zero", "terms-not-list",
        "l-not-int", "P-not-matrix", "P-singular", "mu-decreasing", "level-wrong",
        "negative-window",
        "negative-samples", "module-l-not-int", "module-T-not-matrix",
        "module-T-wrong-shape", "module-entry-bool", "coeff-bool", "br-image-not-string",
        "br-not-object",
        "out-unwritable", "mu-range-empty", "budget-zero",
        "pair-budget-zero", "lambda-image-not-int", "lambda-image-empty-entries",
        "case-without-l", "lambda-image-in-mixed-equal-mode"])
def test_bad_input_exits_two_with_typed_error(tmp_path, monkeypatch, capsys, argv, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(_RHO))
    if content is not None:
        (tmp_path / "in.json").write_text(content)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error [CONFIG_INVALID]: ")


def test_galois_condition_is_the_library_error(capsys):
    assert main(["fields", "build", "--case", "ramified", "--p", "5", "--l", "3"]) == 2
    assert capsys.readouterr().err.startswith("error [GALOIS_CONDITION_FAILED]: ")


@pytest.mark.parametrize("argv, content", [
    (_TATE, '{"l": 2, "k": 200, "dim": 1, "T": [[1]]}'),
    (_TATE, '{"l": 1000003, "k": 1, "dim": 1, "T": [[1]]}'),
    (["check", "kaz-hom", "--p", "2", "--l", "3", "--k", "200"], None),
], ids=["module-k-200", "module-l-large", "check-k-200"])
def test_coefficient_field_over_the_size_bound_exits_two(tmp_path, monkeypatch, capsys,
                                                          argv, content):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / "in.json").write_text(content)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error [SPEC_MISMATCH]: |F| = ")


def test_a_coefficient_of_neither_form_names_both(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text('{"l": 2, "k": 1, "dim": 1, "T": [[1.5]]}')
    assert main(_TATE) == 2
    assert capsys.readouterr().err == (
        "error [CONFIG_INVALID]: coefficient must be an integer or a list of integers, "
        "not 1.5\n")


def test_non_integer_lambda_image_names_the_flag(capsys):
    assert main(_LAMBDA + ["a,b"]) == 2
    assert "--lambda-image" in capsys.readouterr().err


def test_optimized_run_is_byte_identical(tmp_path):
    """Result-guarding checks are no bare asserts: ``python -O`` strips
    those, and the reports must not change."""
    (tmp_path / "m.json").write_text(json.dumps(_TATE_MODULE))
    (tmp_path / "r.json").write_text(json.dumps(_RHO))
    (tmp_path / "b.json").write_text(json.dumps({"generators": {"e": "f"}}))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(argv, *flags):
        return subprocess.run([sys.executable, *flags, "-m", "closehecke.cli", *argv],
                              env=env, cwd=tmp_path, capture_output=True, timeout=300)

    for argv in (["check", "kaz-hom", "--p", "2", "--window", "1", "--samples", "1"],
                 ["check", "main-diagram", "--case", "ramified", "--p", "3", "--l", "2",
                  "--window", "1", "--samples", "1"],
                 ["cosets", "enumerate", "--side", "E", "--case", "unramified",
                  "--p", "2", "--l", "3", "--mu-lo", "0", "--mu-hi", "0"],
                 ["cosets", "enumerate", "--side", "F", "--p", "2", "--n", "3",
                  "--mu-lo", "0", "--mu-hi", "1", "--window", "1"],
                 ["tate", "cohomology", "--module", "m.json", "--i", "0"],
                 ["linkage", "check", "--xi", "m.json", "--rho", "r.json", "--br", "b.json"]):
        plain, optimized = run(argv), run(argv, "-O")
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout


# the tests that drive a result-guarding check to fail: each must raise its
# typed error with asserts stripped too
_TYPED_INVARIANT_TESTS = [
    "tests/test_cartan.py::test_group_elements_short_closure_raises",
    "tests/test_cartan.py::test_residue_invertible_matches_determinant_oracle",
    "tests/test_cartan.py::test_decreasing_cartan_invariant_raises_typed_error",
    "tests/test_products.py::test_smith_refusals_are_typed",
    "tests/test_products.py::test_a_matrix_known_below_the_bound_is_refused",
    "tests/test_cartan.py::test_label_ring_at_the_wrong_level_raises_typed_error",
    "tests/test_cartan.py::test_a_window_short_of_its_count_raises",
    "tests/test_cartan.py::test_an_unknown_multiplier_reaches_the_smith_transforms",
    "tests/test_cartan.py::test_sigma_label_of_a_base_side_is_a_side_mismatch",
    "tests/test_cartan.py::test_inverse_refuses_a_pivot_under_a_zero_floor",
    "tests/test_hecke.py::test_brauer_restrict_refuses_a_non_canonical_base_label",
    "tests/test_transfer.py::test_extension_pair_guards_raise_typed_errors",
    "tests/test_transfer.py::test_close_pair_uniformizer_mismatch_raises_typed_error",
    "tests/test_hecke.py::test_inconsistent_double_coset_counts_raise",
    "tests/test_hecke.py::test_a_double_coset_missing_left_cosets_raises",
    "tests/test_hecke.py::test_a_transversal_short_for_every_label_raises",
    "tests/test_hecke.py::test_sigma_orbit_of_wrong_length_raises",
    "tests/test_hecke.py::test_brauer_restrict_to_another_rank_is_a_side_mismatch",
    "tests/test_rings.py::test_bad_ring_parameters_raise_typed_errors",
    "tests/test_rings.py::test_bad_galois_parameters_raise_typed_errors",
    "tests/test_rings.py::test_ramified_spec_and_errors",
    "tests/test_rings.py::test_wrong_residue_inverse_raises_typed_error",
    "tests/test_rings.py::test_failed_frobenius_lift_raises_typed_error",
    "tests/test_tate.py::test_wrong_quotient_dimension_raises_typed_error",
    "tests/test_tate.py::test_quotient_module_generator_leaving_the_kernel",
    "tests/test_tate.py::test_quotient_module_generator_moving_the_image",
]


def test_typed_invariants_hold_under_optimize():
    """``python -O`` strips bare asserts; the typed checks must still fire."""
    root = SRC.parent
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *_TYPED_INVARIANT_TESTS],
                          env=env, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "failed" not in proc.stdout


# pi_(0,1) on each side that a pinned document reads: F of the p = 3 base,
# and E of the ramified p = 3, l = 2 tower (label level em = 2)
_F_PI = {"side": "F", "l": 2, "k": 1,
         "terms": [{"label": {"mu": [0, 1], "P": [[1, 0], [0, 1]], "Q": [[1, 0], [0, 1]],
                              "level": 1}, "coeff": [1]}]}
_E_PI = {"side": "E", "l": 2, "k": 1,
         "terms": [{"label": {"mu": [0, 1], "P": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                              "Q": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "level": 2},
                    "coeff": [1]}]}
_RAM = ["--p", "3", "--l", "2", "--case", "ramified"]
_UNRAM = ["--p", "2", "--l", "3", "--case", "unramified"]
# argv -> sha256 of its stdout.  Documents stay byte-identical, so a digest
# changes only with a deliberate change of its document.  A re-record is
# proved byte for byte: for each argv, the old stdout parsed, edited as the
# change intends (say, a removed config key deleted) and dumped again with
# json.dumps(doc, sort_keys=True, indent=2) + "\n" equals the new stdout.
# "hecke brauer" reads the orbit sum "hecke sigma" prints.
# Windows list canonical labels and Brauer restriction prints the
# de-embedded canonical label, which re-recorded two digests:
# - "cosets enumerate --p 2 ... --window 1": the new list of 21 labels is
#   the sorted list of canonical_label of each old label (7 of the old 21
#   were not canonical); command, config and version are unchanged;
# - "check main-diagram" ramified: config, pass flag and the order of the
#   165 sample inputs are unchanged, and the multiset of (kind, input,
#   equal, lhs, rhs) is unchanged once every term label is mapped through
#   canonical_label; samples move only within the "orbit-sum of F-label
#   (0, 1)" group, whose F-labels are now listed in canonical form.
_PINNED_DOCUMENTS = [
    (["fields", "build", *_UNRAM],
     "ac37a05239c08826628e7cde32b93457407584d1717a1051d17cb256883708c1"),
    (["fields", "build", *_RAM],
     "450ab3d4ab4e7d76bcedf7f859f1f4f364c051789ae1af1e49db617b18780dcd"),
    (["cosets", "enumerate", "--p", "2", "--mu-lo", "0", "--mu-hi", "1", "--window", "1"],
     "b04e94016e61bd060332047765b23249a28b40f34c630a6c3f78fe57bba6d2be"),
    (["cosets", "enumerate", "--side", "E", *_RAM, "--mu-lo", "0", "--mu-hi", "0"],
     "6ead6296c612c3c1ada5f43086005252470f87bb765803601505043c608f1237"),
    (["check", "kaz-hom", "--p", "2", "--l", "3", "--window", "1", "--samples", "2",
      "--seed", "5"],
     "d481d999807b48678b2f524e92145910b28db3c97e3801d81454953170020bc8"),
    (["check", "kaz-hom", "--p", "3", "--m", "2", "--n", "3", "--pair-mode", "equal-equal",
      "--lambda-image", "1,1", "--window", "1", "--samples", "1"],
     "4f4b895465f54c60536548f9e3801a16f8fe2c1f7da7d0979bb1ddb75f4d0187"),
    (["check", "galois-equivariance", *_UNRAM, "--window", "1", "--samples", "2"],
     "0e2deb39d19f5047fd016a2c33544e71d70f95259df2d6001772298c00159aa0"),
    (["check", "main-diagram", *_RAM, "--window", "1", "--samples", "2"],
     "0723c3e49af62f0f14e906881c1316a9b25dcef60618ef750007ac80f8d66f28"),
    (["check", "lemma-conv", "--p", "2", "--window", "1", "--samples", "2", "--seed", "3"],
     "241cee29dcf1dac383f995f3794c5d4e428655a6b00e00ca393626d021dc5c7a"),
    (["hecke", "convolve", "--p", "3", "--l", "2", "--a", "f.json", "--b", "f.json"],
     "629b486c3202e520a3c6ec76a6132bae295466899a118c7ea9586894e9c1b4ca"),
    (["kaz", "map", "--p", "3", "--l", "2", "--in", "f.json"],
     "ba12bc7a8c227beea1a48de8bc77fa09ce5b4a38331c0e77fb98830c0d0a1388"),
    (["hecke", "sigma", *_RAM, "--in", "e.json", "--orbit-sum"],
     "0ee174df75cd78804f1b750f79c74a811094e336906a72edca4a99c67532ba3f"),
    (["hecke", "brauer", *_RAM, "--in", "sum.json"],
     "6db992fb4c06d623020d6cf990e844b5ac1ba83f9bbe83cc15a5a3f4f919ba23"),
    (["tate", "cohomology", "--module", "m.json", "--i", "1"],
     "eb991a261a443fa8f4f8fcc8ce39263704ee2d7b500fd8cc67ce2ee424f4d38a"),
    (["linkage", "check", "--xi", "m.json", "--rho", "r.json", "--br", "b.json"],
     "27d606e9060c5dd24cc0467274ea2d7a365bc7bc33ad04c483bad94ea177e983"),
]


def test_cli_documents_are_unchanged(tmp_path, monkeypatch, capsys):
    """Every subcommand's stdout, byte for byte, on both towers."""
    monkeypatch.chdir(tmp_path)
    for name, doc in (("f.json", _F_PI), ("e.json", _E_PI), ("m.json", _TATE_MODULE),
                      ("r.json", _RHO), ("b.json", {"generators": {"e": "f"}})):
        (tmp_path / name).write_text(json.dumps(doc))
    for argv, digest in _PINNED_DOCUMENTS:
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        if argv[:2] == ["hecke", "sigma"]:
            (tmp_path / "sum.json").write_text(json.dumps(json.loads(out)["result"]))
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


_E_TWO_TERMS = {**_E_PI, "terms": _E_PI["terms"] + [
    {**_E_PI["terms"][0], "label": {**_E_PI["terms"][0]["label"], "mu": [0, 2]}}]}


@pytest.mark.parametrize("argv, files, code", [
    (["kaz", "map", "--p", "2", "--in", "f.json"], {"f.json": []}, "CONFIG_INVALID"),
    (["kaz", "map", "--p", "3", "--l", "2", "--in", "e.json"], {"e.json": _E_PI},
     "CONFIG_INVALID"),
    (["cosets", "enumerate", "--p", "2", "--side", "E"], {}, "CONFIG_INVALID"),
    (["hecke", "sigma", *_RAM, "--in", "e.json", "--orbit-sum"], {"e.json": _E_TWO_TERMS},
     "CONFIG_INVALID"),
    (["hecke", "brauer", *_RAM, "--in", "f.json"], {"f.json": _F_PI}, "SIDE_MISMATCH"),
    (["hecke", "convolve", *_RAM, "--a", "f.json", "--b", "e.json"],
     {"f.json": _F_PI, "e.json": _E_PI}, "SIDE_MISMATCH"),
    (["kaz", "map", "--p", "3", "--l", "2", "--in", "f.json"], {"f.json": {**_F_PI, "l": 5}},
     "SPEC_MISMATCH"),
    (["hecke", "sigma", *_RAM, "--in", "f.json"], {"f.json": _F_PI}, "SIDE_MISMATCH"),
    (["check", "lemma-conv", "--p", "2", "--window", "0", "--samples", "1"], {},
     "CONFIG_INVALID"),
    (["check", "lemma-conv", "--p", "2", "--n", "1", "--samples", "1"], {}, "CONFIG_INVALID"),
    # the transversals of mu = (0, 4) hold 2^4 = 16 cosets
    (["check", "kaz-hom", "--p", "2", "--l", "3", "--window", "4", "--samples", "0",
      "--budget", "10"], {}, "BUDGET_EXCEEDED"),
    # F_{2^257} is refused before the search for its minimal polynomial
    (["fields", "build", "--case", "unramified", "--p", "2", "--l", "257"], {},
     "SPEC_MISMATCH"),
    # Xi over F_3 and rho over F_5
    (["linkage", "check", "--xi", "m.json", "--rho", "r.json", "--br", "b.json"],
     {"m.json": {"l": 3, "k": 1, "dim": 1, "T": [[1]], "action": {"e": [[2]]}},
      "r.json": {**_RHO, "l": 5}, "b.json": {"e": "f"}}, "SPEC_MISMATCH"),
], ids=["file-holds-a-list", "E-element-without-case", "cosets-E-without-case",
        "orbit-sum-of-two-terms", "brauer-of-an-F-element", "convolve-F-with-E",
        "element-field-mismatch", "sigma-of-an-F-element", "lemma-conv-window-0",
        "lemma-conv-rank-1", "transversal-over-budget", "unramified-residue-field-2^257",
        "linkage-fields-differ"])
def test_each_bad_input_exits_two_with_its_typed_code(tmp_path, monkeypatch, capsys,
                                                      argv, files, code):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{code}]: ")


@pytest.mark.parametrize("spread", [10 ** 4, 10 ** 7])
def test_a_convolution_of_huge_spread_is_refused_at_once(tmp_path, monkeypatch, capsys,
                                                         spread):
    # t[(0, s)] * t[(0, s)] at p = 3 lists 3^s cosets: refused before its
    # working ring Z/3^(2s + 1) is built, and the message names 3^s, not
    # its digits
    monkeypatch.chdir(tmp_path)
    label = {**_F_PI["terms"][0]["label"], "mu": [0, spread]}
    (tmp_path / "f.json").write_text(json.dumps(
        {**_F_PI, "terms": [{"label": label, "coeff": [1]}]}))
    start = time.perf_counter()
    assert main(["hecke", "convolve", "--p", "3", "--l", "2", "--a", "f.json",
                 "--b", "f.json"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error [BUDGET_EXCEEDED]: the transversal of (0, {spread}) holds 3^{spread} "
        "cosets, over budget 10000000\n")


def test_kaz_hom_at_a_deep_equal_level_draws_without_listing_the_ring(capsys):
    # the label ring F_2[t]/t^40 has 2^40 elements: random residue matrices
    # are drawn by index, never from a list of the ring
    code, out = run_cli(capsys, "check", "kaz-hom", "--p", "2", "--l", "3", "--m", "40",
                        "--pair-mode", "equal-equal", "--window", "1", "--samples", "1")
    assert code == 0 and json.loads(out)["pass"] is True


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _listing(parser):
    """The subparsers' dest and required flag, and the (name, help) entries
    the parser's help lists."""
    sub = _subparsers(parser)
    return sub.dest, sub.required, [(c.dest, c.help) for c in sub._choices_actions]


def _arguments(parser):
    """Every argument of a subcommand, as the parser holds it."""
    return [{"options": a.option_strings, "dest": a.dest, "default": a.default,
             "choices": None if a.choices is None else list(a.choices),
             "required": a.required, "type": getattr(a.type, "__name__", a.type),
             "action": type(a).__name__, "help": a.help} for a in parser._actions]


_GROUP_LISTINGS = {
    None: ("command", True, [("fields", "build field towers"),
                             ("cosets", "double-coset enumeration"),
                             ("hecke", "Hecke algebra operations"),
                             ("kaz", "Kazhdan transfer"),
                             ("check", "verification suites"),
                             ("tate", "Tate cohomology"),
                             ("linkage", "linkage predicate")]),
    "fields": ("fields_command", True,
               [("build", "build a close pair with matched extensions")]),
    "cosets": ("cosets_command", True,
               [("enumerate", "enumerate double-coset labels in a window")]),
    "hecke": ("hecke_command", True, []),
    "kaz": ("kaz_command", True, []),
    "check": ("check_command", True, []),
    "tate": ("tate_command", True, []),
    "linkage": ("linkage_command", True, []),
}
# (group, subcommand) -> sha256 of the JSON of its _arguments
_SUBCOMMAND_SURFACES = {
    ("fields", "build"):
        "072aaa3734635bc79c01c7d0905572550d8353ba60af03f027b20eaadea11b6a",
    ("cosets", "enumerate"):
        "f36b6f88c3603af0c2b459e7b2dd904fae69ef04909a94bedda0e45901c6b009",
    ("hecke", "convolve"):
        "4dfd7cd4272fce298e8f81ff578712f570ba2d1ee20f4841ee4c52e8eb78d13a",
    ("hecke", "brauer"):
        "e5ca07a531a03c8da82e362e74f0ea7b1c55fb0c2e5c1252108e347b2272f1d5",
    ("hecke", "sigma"):
        "ea5839dc0ede3688f8d526240eb440cbb2599afbf0389f9ee7c6d08268973ceb",
    ("kaz", "map"):
        "849e83c4d083fd70548553368aa2c2a2d7e785c1fa63d7237d170551f0c68ca1",
    ("check", "kaz-hom"):
        "92f03e3d88577f37da021cf3ee40f929a0e28621746d8eb4fab7ca3c58902e7b",
    ("check", "galois-equivariance"):
        "ac266e245fe19f455366f4e041d3cd1e96a3d271c0a2086345147b2fb929eea0",
    ("check", "main-diagram"):
        "d7ae66a39ef8cdaccf75ade2997ba12662f5a893285695bb2fd655ee17baee88",
    ("check", "lemma-conv"):
        "17ab0869e79008a2a6ce7183cb10b273403ab9905def20c2e8772c7cd6026c68",
    ("tate", "cohomology"):
        "57db558cb5545e9d6b3c8ef122328be01bc1c71071c6fb2c54a33daabc391433",
    ("linkage", "check"):
        "cb0cadeb9b9b635f30d363aaf4a362ad113f0e2703507e7f44c9e8edb236fa7e",
}


def test_parser_surface_is_unchanged():
    """Each group lists its subcommands with their help, and each of the 12
    subcommands keeps its option strings, dests, defaults, choices, required
    flags, types, action classes and help strings."""
    top = build_parser()
    groups = _subparsers(top).choices
    assert {None: _listing(top), **{g: _listing(p) for g, p in groups.items()}} == \
        _GROUP_LISTINGS
    surfaces = {}
    for group, parser in groups.items():
        for name, sub in _subparsers(parser).choices.items():
            text = json.dumps(_arguments(sub), sort_keys=True)
            surfaces[group, name] = hashlib.sha256(text.encode()).hexdigest()
    assert surfaces == _SUBCOMMAND_SURFACES


def test_json_flag_prints_what_out_writes(tmp_path, capsys):
    argv = ["fields", "build", "--case", "unramified", "--p", "2", "--l", "3"]
    path = tmp_path / "doc.json"
    assert main(argv + ["--out", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out and out.encode() == path.read_bytes()
    path.unlink()
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == "" and path.read_text() == out
