import json

import pytest

from atebench.cli import main
from atebench.discovery import save_posterior, uniform_posterior
from atebench.graphs import save_graph
from atebench.scm import random_er_dag, random_scm, sample, save_dataset


def run_cli(*argv):
    return main(list(argv))


def base_args(root, **extra):
    args = {
        "--d": "3",
        "--n": "120",
        "--num-seeds": "1",
        "--master-seed": "5",
        "--posterior-size": "4",
        "--methods": "bootstrap-pc",
        "--output-root": str(root),
    }
    args.update(extra)
    return [x for kv in args.items() for x in kv]


def test_run_prints_report_table(tmp_path, capsys):
    code = run_cli("run", *base_args(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert "report:" in out
    assert "bootstrap-pc" in out
    assert (tmp_path / "run" / "report" / "run_report.csv").exists()


def test_staged_commands_and_report(tmp_path, capsys):
    args = base_args(tmp_path / "staged")
    for command in ("generate", "discover", "ate-sweep", "evaluate"):
        assert run_cli(command, *args) == 0
        assert "seeds completed: 1/1" in capsys.readouterr().out
    assert run_cli("report", *args) == 0
    assert "bootstrap-pc" in capsys.readouterr().out


def test_premature_report_is_a_clean_error(tmp_path, capsys):
    args = base_args(tmp_path / "early")
    assert run_cli("generate", *args) == 0
    capsys.readouterr()
    assert run_cli("report", *args) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_output_root_is_exit_two(capsys):
    code = run_cli("run", "--d", "3")
    err = capsys.readouterr().err
    assert code == 2
    assert "output_root" in err


def test_env_var_supplies_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ATEBENCH_OUTPUT_ROOT", str(tmp_path / "env_root"))
    args = [x for x in base_args(tmp_path) if not x.startswith(str(tmp_path))]
    args = args[: args.index("--output-root")] + args[args.index("--output-root") + 2 :]
    assert run_cli("generate", *args) == 0
    assert (tmp_path / "env_root" / "seeds" / "seed_000" / "data.npz").exists()


def test_flag_overrides_beat_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("d = 3\nn = 50\nposterior_size = 4\nmaster_seed = 5\n")
    root = tmp_path / "cfgrun"
    code = run_cli(
        "generate", "--config", str(cfg_file), "--n", "80", "--output-root", str(root)
    )
    assert code == 0
    stamped = (root / "run_config.txt").read_text()
    assert "n=80" in stamped.splitlines()


def test_bad_flag_value_is_exit_two(tmp_path, capsys):
    code = run_cli("run", "--d", "banana", "--output-root", str(tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2
    assert "d" in err


def test_unknown_method_is_exit_two(tmp_path, capsys):
    code = run_cli("run", *base_args(tmp_path / "m", **{"--methods": "gibbs"}))
    assert code == 2
    assert "gibbs" in capsys.readouterr().err


def test_failed_seed_sets_exit_code_one(tmp_path, capsys):
    # GES refuses n < d + 2, so the only seed fails but the stage command
    # itself completes with diagnostics
    code = run_cli(
        "discover",
        *base_args(tmp_path / "f", **{"--n": "4", "--methods": "bootstrap-ges"}),
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "seed 0 failed" in captured.err
    doc = json.loads((tmp_path / "f" / "run_manifest.json").read_text())
    assert doc["seeds"]["0"]["status"] == "failed"


def test_missing_external_inputs_are_exit_two(tmp_path, capsys):
    posterior = tmp_path / "p.txt"
    posterior.write_text("")
    code = run_cli(
        "run", "--mode", "real",
        "--dataset-path", str(tmp_path / "nope.csv"),
        "--graph-path", str(tmp_path / "nope.txt"),
        "--posterior-path", str(posterior),
        "--output-root", str(tmp_path / "R"),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: config key 'dataset_path': cannot read input {tmp_path / 'nope.csv'}: " in err
    assert not (tmp_path / "R").exists()


def test_reserved_external_method_tag_is_exit_two(tmp_path, capsys):
    g = random_er_dag(3, 2, seed=1)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(sample(random_scm(g, seed=1), 50, seed=1), tmp_path / "data.csv")
    save_posterior(uniform_posterior([g], "true-mec", seed=0), tmp_path / "p.txt")
    code = run_cli(
        "run", "--mode", "real",
        "--dataset-path", str(tmp_path / "data.csv"),
        "--graph-path", str(tmp_path / "truth.txt"),
        "--posterior-path", str(tmp_path / "p.txt"),
        "--output-root", str(tmp_path / "R"),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "method tag 'true-mec' is reserved" in err
    assert not (tmp_path / "R").exists()


def test_posterior_directory_is_exit_two(tmp_path, capsys):
    g = random_er_dag(3, 2, seed=1)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(sample(random_scm(g, seed=1), 50, seed=1), tmp_path / "data.csv")
    posterior = tmp_path / "posterior"
    posterior.mkdir()
    save_graph(g, posterior / "g.txt")
    # every command hashes its inputs before it parses or creates anything
    for command in ("run", "report"):
        code = run_cli(
            command, "--mode", "real",
            "--dataset-path", str(tmp_path / "data.csv"),
            "--graph-path", str(tmp_path / "truth.txt"),
            "--posterior-path", str(posterior),
            "--output-root", str(tmp_path / "R"),
        )
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: config key 'posterior_path': cannot read input {posterior}: " in err
        assert not (tmp_path / "R").exists()


def test_staged_commands_on_an_external_posterior_match_one_run(tmp_path, capsys):
    g = random_er_dag(4, 4, seed=2)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(sample(random_scm(g, seed=2), 80, seed=2), tmp_path / "data.csv")
    others = [random_er_dag(4, 3, seed=k) for k in range(3)]
    save_posterior(uniform_posterior([g] + others, "ext", seed=0), tmp_path / "p.txt")

    def args(root):
        return ["--mode", "real", "--dataset-path", str(tmp_path / "data.csv"),
                "--graph-path", str(tmp_path / "truth.txt"),
                "--posterior-path", str(tmp_path / "p.txt"), "--output-root", str(root)]
    assert run_cli("run", *args(tmp_path / "one")) == 0
    for command in ("generate", "discover", "ate-sweep", "evaluate"):
        assert run_cli(command, *args(tmp_path / "staged")) == 0
        assert "seeds completed: 1/1" in capsys.readouterr().out
    assert run_cli("report", *args(tmp_path / "staged")) == 0
    assert "ext" in capsys.readouterr().out
    report = ("report", "run_report.csv")
    assert ((tmp_path / "staged").joinpath(*report).read_bytes()
            == (tmp_path / "one").joinpath(*report).read_bytes())
    copy = tmp_path / "staged" / "seeds" / "seed_000" / "posteriors" / "ext.txt"
    assert copy.read_bytes() == (tmp_path / "p.txt").read_bytes()


def test_real_mode_keys_may_be_split_between_file_and_flags(tmp_path, capsys):
    g = random_er_dag(3, 2, seed=1)
    save_graph(g, tmp_path / "truth.txt")
    save_dataset(sample(random_scm(g, seed=1), 50, seed=1), tmp_path / "data.csv")
    save_posterior(uniform_posterior([g], "ext", seed=0), tmp_path / "p.txt")
    cfg_file = tmp_path / "real.cfg"
    cfg_file.write_text(f"mode = real\nposterior_path = {tmp_path / 'p.txt'}\n")
    root = tmp_path / "R"
    code = run_cli(
        "generate", "--config", str(cfg_file),
        "--dataset-path", str(tmp_path / "data.csv"),
        "--graph-path", str(tmp_path / "truth.txt"),
        "--output-root", str(root),
    )
    assert code == 0
    assert "seeds completed: 1/1" in capsys.readouterr().out
    stamped = (root / "run_config.txt").read_text().splitlines()
    assert "mode=real" in stamped
    assert f"graph_path={tmp_path / 'truth.txt'}" in stamped


def test_a_config_still_invalid_after_the_flags_is_exit_two(tmp_path, capsys):
    cfg_file = tmp_path / "real.cfg"
    cfg_file.write_text("mode = real\n")
    root = str(tmp_path / "R")
    want = "error: config key 'graph_path': required in real mode\n"
    # the same message whether the keys come from flags alone or from both
    assert run_cli("generate", "--mode", "real", "--dataset-path", "d.csv", "--output-root", root) == 2
    assert capsys.readouterr().err == want
    assert run_cli("generate", "--config", str(cfg_file), "--dataset-path", "d.csv", "--output-root", root) == 2
    assert capsys.readouterr().err == want
    assert run_cli("generate", "--config", str(cfg_file), "--output-root", root) == 2
    assert capsys.readouterr().err == "error: config key 'dataset_path': required in real mode\n"
    assert not (tmp_path / "R").exists()


def test_a_none_flag_overrides_the_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("d = 3\nn = 50\nposterior_size = 4\nmax_condition_size = 2\nmcmc_thin = 3\n")
    root = tmp_path / "R"
    code = run_cli("generate", "--config", str(cfg_file), "--max-condition-size", "none",
                   "--mcmc-thin", "auto", "--output-root", str(root))
    assert code == 0
    stamped = (root / "run_config.txt").read_text().splitlines()
    assert "max_condition_size=none" in stamped
    assert "mcmc_thin=none" in stamped


@pytest.mark.parametrize("rel, text, command, message", [
    ("seeds/seed_000/manifest.json", '{"stages": ', "discover", "not a JSON object"),
    ("seeds/seed_000/manifest.json", '{"seed_index": 0}', "discover",
     "not a JSON object with a 'stages' object"),
    ("seeds/seed_000/manifest.json", '{"seed_index": 0}', "report",
     "not a JSON object with a 'stages' object"),
    ("run_manifest.json", '{"version": ', "report", "not a JSON object"),
    ("run_manifest.json", "[]", "report", "not a JSON object"),
])
def test_a_damaged_manifest_is_a_clean_error_and_is_left_as_it_was(
        tmp_path, capsys, rel, text, command, message):
    args = base_args(tmp_path / "root")
    assert run_cli("run", *args) == 0
    path = tmp_path / "root" / rel
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, *args) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert path.read_text(encoding="utf-8") == text


def test_more_expected_edges_than_fit_are_refused_before_anything_is_written(tmp_path, capsys):
    root = tmp_path / "d2"
    assert run_cli("run", *base_args(root, **{"--d": "2", "--num-seeds": "2"})) == 2
    assert capsys.readouterr().err == (
        "error: config key 'er_expected_edges': must be at most the 1 possible edges at d=2 "
        "(it defaults to d), got 2\n"
    )
    assert not root.exists()
    args = base_args(root, **{"--d": "2", "--num-seeds": "2", "--er-expected-edges": "1"})
    assert run_cli("generate", *args) == 0
    assert "seeds completed: 2/2" in capsys.readouterr().out


def tree_bytes(root):
    """Every path under root, with each file's bytes (None for a directory)."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_damaged_seed_manifest_stops_the_command_before_any_seed_advances(
        tmp_path, capsys, workers):
    root = tmp_path / "root"
    args = base_args(root, **{"--num-seeds": "2", "--workers": workers})
    assert run_cli("generate", *args) == 0
    path = root / "seeds" / "seed_001" / "manifest.json"
    path.write_text('{"stages": ', encoding="utf-8")
    before = tree_bytes(root)
    capsys.readouterr()
    assert run_cli("discover", *args) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON object")
    assert tree_bytes(root) == before


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("keep_config", [True, False], ids=["run_config", "no run_config"])
def test_a_root_computed_under_another_config_is_refused_and_left_as_it_was(
        tmp_path, capsys, workers, keep_config):
    root = tmp_path / "root"
    args = {"--num-seeds": "2", "--workers": workers}
    assert run_cli("generate", *base_args(root, **args, **{"--master-seed": "1"})) == 0
    if not keep_config:
        (root / "run_config.txt").unlink()
    before = tree_bytes(root)
    capsys.readouterr()
    assert run_cli("run", *base_args(root, **args, **{"--master-seed": "2"})) == 2
    refused_by = "run_config.txt" if keep_config else "seeds/seed_000/manifest.json"
    assert capsys.readouterr().err.startswith(f"error: {root / refused_by}: ")
    assert tree_bytes(root) == before
    # the original config still resumes, and every seed manifest records it
    assert run_cli("run", *base_args(root, **args, **{"--master-seed": "1"})) == 0
    digests = {json.loads((root / "seeds" / f"seed_{k:03d}" / "manifest.json").read_text())
               ["config_digest"] for k in range(2)}
    assert len(digests) == 1


def test_report_on_a_root_without_a_run_manifest_writes_nothing(tmp_path, capsys):
    root = tmp_path / "R"
    assert run_cli("report", *base_args(root)) == 2
    assert capsys.readouterr().err == (
        f"error: {root}: no run_manifest.json that lists a method; run the pipeline first\n")
    assert not root.exists()
    assert run_cli("run", *base_args(root, **{"--d": "4"})) == 0
