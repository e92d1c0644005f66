"""The CLI contract cases of ``tests/cli_cases``, run in-process.  CI runs
the same cases through the installed console script (see ``check.py``)."""

import json

import pytest

from cli_cases import check

# The cases that CI's console-script step has held since before the manifest.
CI_CASES = {
    "not_utf8", "not_utf8_cr", "sequence_key", "nested", "aliased", "huge_dims",
    "huge_samples", "huge_features", "huge_logits", "unread_heterogeneity",
    "unread_dirichlet_alpha", "unread_batch_size", "overflow_dispersion", "overflow_server",
    "overflow_scalar_toy", "overflow_alignment", "diverging_sweep",
}


@pytest.mark.parametrize("name", check.cases())
def test_case(name, tmp_path):
    assert check.check_case(name, check.in_process, tmp_path / "out") == []


def test_manifest_names_each_file_once():
    manifest = (check.HERE / "manifest.json").read_text(encoding="utf-8")
    names = [name for name, _ in json.loads(manifest, object_pairs_hook=list)]
    assert CI_CASES <= set(names)
    files = [p.name for p in check.HERE.iterdir() if p.name != "__pycache__"]
    assert sorted(files) == sorted([f"{name}.yaml" for name in names]
                                   + ["check.py", "manifest.json"])


def test_case_bytes_as_committed():
    # Git converts no line end of the cases (.gitattributes marks them -text).
    def read(name):
        return (check.HERE / f"{name}.yaml").read_bytes()

    assert read("not_utf8").endswith(b"fedit\xff\n")
    assert read("not_utf8_cr").count(b"\r") == 3 and b"\n" not in read("not_utf8_cr")
    assert b"\r" in read("unprintable_cr") and b"\n" not in read("unprintable_cr")
    assert read("not_utf8_nel_ls").count(b"\n") == 1
    assert b"\xc2\x85" in read("not_utf8_nel_ls") and b"\xe2\x80\xa8" in read("not_utf8_nel_ls")
