"""Artifact bytes of two fixed studies equal the committed record.

The A7-A9 study is checked in test_acceptance.py, on the runs its fixture
already makes; see artifact_digests.py for the record and how to rewrite it.
"""

import json

import pytest

import artifact_digests
from artifact_digests import check, d6_study, real_inputs, real_study, tree_hashes


def test_a_d6_three_method_study_with_two_workers_matches_the_record(tmp_path):
    d6_study(tmp_path / "d6")
    doc = json.loads((tmp_path / "d6" / "seeds" / "seed_002" / "manifest.json").read_text())
    assert doc["failed"]["stage"] == "truth"
    check("d6-three-methods", tmp_path / "d6")


def test_a_staged_real_study_matches_the_record_and_the_one_shot_run(tmp_path):
    cfg = real_inputs(tmp_path / "inputs")
    real_study(tmp_path / "staged", cfg)
    real_study(tmp_path / "one-shot", cfg, staged=False)
    assert tree_hashes(tmp_path / "staged") == tree_hashes(tmp_path / "one-shot")
    check("real-staged", tmp_path / "staged")


def test_a_record_made_under_other_versions_fails_and_names_both(tmp_path, monkeypatch):
    found = {**artifact_digests.versions(), "numpy": "0.0.1"}
    recorded = json.loads(artifact_digests.RECORD.read_text())["numpy"]
    monkeypatch.setattr(artifact_digests, "versions", lambda: found)
    with pytest.raises(AssertionError) as err:
        check("real-staged", tmp_path)
    assert f"recorded under numpy {recorded}, this is numpy 0.0.1" in str(err.value)
