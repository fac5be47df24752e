"""The README's external-posterior examples run as written."""

import re
from pathlib import Path

import numpy as np

from atebench.ate import AteQuery, load_ate_samples, save_ate_samples, sweep
from atebench.discovery import load_external_posterior
from atebench.graphs import save_graph
from atebench.mec import TRUE_MEC_TAG, enumerate_mec
from atebench.scm import random_er_dag, random_scm, sample, save_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def external_posterior_blocks():
    """{language: body} of the fenced blocks in the README's
    "External posteriors" section; the posterior file is the bare block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### External posteriors\n", 1)[1].split("\n#", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, flags=re.M | re.S)
    langs = [lang for lang, _ in blocks]
    assert len(set(langs)) == len(langs), langs
    return dict(blocks)


def load_example(tmp_path):
    path = tmp_path / "posterior.txt"
    path.write_text(external_posterior_blocks()[""], encoding="utf-8")
    return load_external_posterior(path)


def test_the_external_posterior_example_loads(tmp_path):
    ps = load_example(tmp_path)
    assert (ps.method_tag, ps.seed, len(ps)) == ("my-method", 0, 2)
    assert ps.labels == ("x0", "x1", "x2")
    assert ps.weights.tolist() == [0.75, 0.25]
    assert [int(g.adjacency.sum()) for g in ps.dags] == [2, 2]


def test_the_edge_list_conversion_recipe_writes_the_same_posterior(tmp_path):
    example = load_example(tmp_path)
    files = [tmp_path / f"g{k}.txt" for k in range(len(example))]
    for g, f in zip(example.dags, files):
        save_graph(g, f)
    path = tmp_path / "converted.txt"
    exec(external_posterior_blocks()["python"], {
        "files": files, "weights": example.weights, "tag": example.method_tag,
        "seed": example.seed, "path": path,
    })
    back = load_external_posterior(path)
    assert back.dags == example.dags
    assert np.array_equal(back.weights, example.weights)
    assert (back.method_tag, back.seed) == (example.method_tag, example.seed)


def outputs_python_blocks(path):
    """The python blocks of the README's "Outputs" section that read path."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
    return [b for b in re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
            if path in b]


def test_the_ates_example_reads_one_pairs_atoms(tmp_path, monkeypatch):
    (block,) = outputs_python_blocks("ates/true-mec.npz")
    g = random_er_dag(5, 6, seed=7)
    data = sample(random_scm(g, seed=7), 200, seed=7)
    path = tmp_path / "seeds" / "seed_000" / "ates" / "true-mec.npz"
    path.parent.mkdir(parents=True)
    save_ate_samples(sweep(enumerate_mec(g), data), data.column_labels, path)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    want = load_ate_samples(path, data.column_labels, TRUE_MEC_TAG)[AteQuery(0, 1)]
    assert scope["values"].tobytes() == want.values.tobytes()
    assert scope["weights"].tobytes() == want.weights.tobytes()


def test_the_dataset_example_reads_values_and_labels(tmp_path, monkeypatch):
    (block,) = outputs_python_blocks("data.npz")
    data = sample(random_scm(random_er_dag(5, 6, seed=7), seed=7), 30, seed=7)
    path = tmp_path / "seeds" / "seed_000" / "data.npz"
    path.parent.mkdir(parents=True)
    save_dataset(data, path)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    assert scope["values"].tobytes() == data.values.tobytes()
    assert tuple(scope["labels"]) == data.column_labels


def test_the_python_api_bag_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (block,) = [b for b in re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
                if "enum.stack" in b]
    scope = {}
    exec(block, scope)
    enum = scope["enum"]
    assert capsys.readouterr().out == f"{len(enum)} {enum.stack.shape}\n"
    assert scope["first"] == enum.dags[0]
