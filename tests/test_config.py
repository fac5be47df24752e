import pytest

from atebench.config import (
    KNOWN_METHODS,
    ExperimentConfig,
    load_config,
    parse_config_values,
)
from atebench.errors import ConfigError


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """A config from its text, as ``load_config`` builds one from a file."""
    return ExperimentConfig(**parse_config_values(text, source)).validate()


def test_defaults_validate():
    cfg = ExperimentConfig().validate()
    assert cfg.mode == "synthetic"
    assert cfg.methods == ("bootstrap-pc",)
    assert cfg.er_edges() == cfg.d


def test_text_round_trip_preserves_every_field():
    cfg = ExperimentConfig(
        d=7,
        n=250,
        num_seeds=3,
        methods=("bootstrap-ges", "mcmc"),
        er_expected_edges=9,
        mcmc_thin=17,
        filter_grid=(0.0, 0.1),
        output_root="/tmp/x",
        standardize=True,
    )
    back = parse_config_text(cfg.to_text())
    assert back == cfg


def test_known_methods_cover_the_three_families():
    assert set(KNOWN_METHODS) == {"bootstrap-pc", "bootstrap-ges", "mcmc"}


def test_unknown_method_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("gibbs",)).validate()


def test_dimension_bounds():
    with pytest.raises(ConfigError):
        ExperimentConfig(d=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(d=51).validate()


def test_real_mode_needs_paths_and_single_seed():
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="real").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(
            mode="real", dataset_path="d.csv", graph_path="g.txt", num_seeds=2
        ).validate()
    ExperimentConfig(mode="real", dataset_path="d.csv", graph_path="g.txt").validate()


def test_an_external_posterior_needs_real_mode():
    # a synthetic run has no use for the file, yet its digest would hash it
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(d=4, posterior_path="b.txt").validate()
    assert str(err.value) == "config key 'posterior_path': an external posterior needs mode=real"
    with pytest.raises(ConfigError):
        parse_config_text("posterior_path = b.txt\n")


def test_treatment_values_must_differ():
    with pytest.raises(ConfigError):
        ExperimentConfig(treatment_value_a=1.0, treatment_value_b=1.0).validate()


def test_filter_grid_must_be_increasing_in_unit_interval():
    with pytest.raises(ConfigError):
        ExperimentConfig(filter_grid=(0.1, 0.05)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(filter_grid=(0.0, 1.0)).validate()


def test_digest_ignores_volatile_keys():
    base = ExperimentConfig(d=6, output_root="/tmp/a", workers=1)
    moved = ExperimentConfig(d=6, output_root="/tmp/b", workers=8)
    assert base.digest() == moved.digest()
    assert base.digest() != ExperimentConfig(d=7).digest()
    assert len(base.digest()) == 12


def test_digest_covers_input_paths(tmp_path):
    # the digest covers what the input files hold, not where they are
    (tmp_path / "g.txt").write_text("nodes: a,b\na -> b\n")
    (tmp_path / "x.csv").write_text("a,b\n1,2\n3,5\n")
    (tmp_path / "y.csv").write_text("a,b\n1,2\n3,6\n")
    (tmp_path / "x_copy.csv").write_bytes((tmp_path / "x.csv").read_bytes())

    def real(dataset):
        return ExperimentConfig(
            mode="real", dataset_path=str(tmp_path / dataset), graph_path=str(tmp_path / "g.txt")
        )

    assert real("x.csv").digest() != real("y.csv").digest()
    assert real("x.csv").digest() == real("x_copy.csv").digest()


def test_digest_of_posterior_file_and_missing_input(tmp_path):
    (tmp_path / "g.txt").write_text("nodes: a,b\na -> b\n")
    (tmp_path / "d.csv").write_text("a,b\n1,2\n3,5\n")
    post = tmp_path / "post.txt"
    post.write_text("posterior method=m seed=0\ngraph 0 weight 1.0\nnodes: a,b\na -> b\n")
    cfg = ExperimentConfig(
        mode="real",
        dataset_path=str(tmp_path / "d.csv"),
        graph_path=str(tmp_path / "g.txt"),
        posterior_path=str(post),
    )
    before = cfg.digest()
    post.write_text("posterior method=m seed=0\ngraph 0 weight 1.0\nnodes: a,b\nb -> a\n")
    edited = cfg.digest()
    post.write_text("posterior method=m seed=1\ngraph 0 weight 1.0\nnodes: a,b\nb -> a\n")
    assert len({before, edited, cfg.digest()}) == 3
    (tmp_path / "d.csv").unlink()
    with pytest.raises(ConfigError) as err:
        cfg.digest()
    assert "dataset_path" in str(err.value)


def test_with_overrides_skips_none_and_replaces_values():
    cfg = ExperimentConfig(d=5)
    same = cfg.with_overrides(d=None)
    assert same.d == 5
    bumped = cfg.with_overrides(d=9, methods=("mcmc",))
    assert bumped.d == 9 and bumped.methods == ("mcmc",)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("banana = 3\n")
    assert "banana" in str(err.value)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config_text("d = 3\nd = 4\n")


def test_parse_rejects_line_without_equals():
    with pytest.raises(ConfigError) as err:
        parse_config_text("d 3\n", source="cfg.txt")
    assert "cfg.txt" in str(err.value)


def test_parse_skips_comments_and_blanks():
    cfg = parse_config_text("# header\n\nd = 4\nmethods = mcmc\n")
    assert cfg.d == 4
    assert cfg.methods == ("mcmc",)


def test_parse_optional_ints_accept_none_and_auto():
    cfg = parse_config_text("max_condition_size = none\nmcmc_thin = auto\n")
    assert cfg.max_condition_size is None
    assert cfg.mcmc_thin is None
    cfg = parse_config_text("max_condition_size = 2\n")
    assert cfg.max_condition_size == 2


def test_parse_bool_values():
    assert parse_config_text("standardize = true\n").standardize is True
    assert parse_config_text("standardize = false\n").standardize is False
    with pytest.raises(ConfigError):
        parse_config_text("standardize = maybe\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 6\nn = 123\n")
    cfg = load_config(path)
    assert (cfg.d, cfg.n) == (6, 123)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_the_expected_edge_count_must_fit_in_a_synthetic_graph():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(d=2).validate()
    assert str(err.value) == (
        "config key 'er_expected_edges': must be at most the 1 possible edges at d=2 "
        "(it defaults to d), got 2"
    )
    with pytest.raises(ConfigError, match="at most the 6 possible edges at d=4"):
        ExperimentConfig(d=4, er_expected_edges=7).validate()
    ExperimentConfig(d=2, er_expected_edges=1).validate()
    ExperimentConfig(d=3).validate()
    ExperimentConfig(d=4, er_expected_edges=6).validate()
    # real mode reads its graph and draws none
    ExperimentConfig(mode="real", d=2, dataset_path="d.csv", graph_path="g.txt").validate()
