"""Tests for the Table IV dataset registry and synthesis calibration."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs.datasets import DATASETS, dataset_names, load_dataset
from repro.graphs.stats import graph_stats


class TestRegistry:
    def test_table_iv_names(self):
        assert dataset_names() == [
            "mutag",
            "proteins",
            "imdb-bin",
            "collab",
            "reddit-bin",
            "citeseer",
            "cora",
        ]

    def test_categories(self):
        assert DATASETS["mutag"].category == "LEF"
        assert DATASETS["proteins"].category == "LEF"
        assert DATASETS["imdb-bin"].category == "HE"
        assert DATASETS["collab"].category == "HE"
        assert DATASETS["reddit-bin"].category == "HF"
        assert DATASETS["citeseer"].category == "HF"
        assert DATASETS["cora"].category == "HF"

    def test_feature_dims_match_paper(self):
        assert DATASETS["mutag"].num_features == 28
        assert DATASETS["proteins"].num_features == 29
        assert DATASETS["imdb-bin"].num_features == 136
        assert DATASETS["collab"].num_features == 492
        assert DATASETS["reddit-bin"].num_features == 3782
        assert DATASETS["citeseer"].num_features == 3703
        assert DATASETS["cora"].num_features == 1433

    def test_batch_sizes_match_paper(self):
        """§V-A2: one batch of 64 graphs (32 for Reddit-bin)."""
        for name, spec in DATASETS.items():
            if spec.task == "graph":
                assert spec.batch_size == (32 if name == "reddit-bin" else 64)
            else:
                assert spec.batch_size == 1

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("pubmed")


class TestSynthesis:
    @pytest.mark.parametrize("name", dataset_names())
    def test_vertex_count_tracks_table_iv(self, name):
        ds = load_dataset(name)
        spec = ds.spec
        expected = spec.avg_nodes * spec.batch_size
        assert abs(ds.graph.num_vertices - expected) <= 0.15 * expected

    @pytest.mark.parametrize("name", ["citeseer", "cora"])
    def test_node_dataset_edges(self, name):
        ds = load_dataset(name)
        spec = ds.spec
        assert abs(ds.graph.num_edges - spec.avg_edges) <= 0.1 * spec.avg_edges

    @pytest.mark.parametrize("name", ["mutag", "imdb-bin", "collab"])
    def test_graph_dataset_edges(self, name):
        ds = load_dataset(name)
        spec = ds.spec
        target = 2 * spec.avg_edges * spec.batch_size  # undirected -> nnz
        assert abs(ds.graph.num_edges - target) <= 0.35 * target

    def test_determinism(self):
        a = load_dataset("mutag", seed=9)
        b = load_dataset("mutag", seed=9)
        np.testing.assert_array_equal(a.graph.edge_dst, b.graph.edge_dst)

    def test_seeds_differ(self):
        a = load_dataset("mutag", seed=1)
        b = load_dataset("mutag", seed=2)
        assert a.graph.num_edges != b.graph.num_edges or not np.array_equal(
            a.graph.edge_dst, b.graph.edge_dst
        )

    def test_category_degree_shapes(self):
        """HE must be dense, HF heavy-tailed, LEF uniform — the structure
        the paper's dataflow conclusions depend on."""
        lef = graph_stats(load_dataset("mutag").graph)
        he = graph_stats(load_dataset("imdb-bin").graph)
        hf = graph_stats(load_dataset("citeseer").graph)
        assert he.avg_degree > 2 * lef.avg_degree
        assert hf.max_degree > 10 * hf.avg_degree  # evil rows
        assert lef.max_degree <= 3 * lef.avg_degree  # uniform

    def test_batch_size_override(self):
        ds = load_dataset("mutag", batch_size=8)
        assert ds.graph.num_vertices < load_dataset("mutag").graph.num_vertices

    def test_hidden_override(self):
        ds = load_dataset("citeseer", hidden=32)
        assert ds.hidden == 32

    def test_default_hidden_is_class_count(self):
        assert load_dataset("mutag").hidden == 2
        assert load_dataset("collab").hidden == 3
        assert load_dataset("citeseer").hidden == 6
        assert load_dataset("cora").hidden == 7

    def test_gcn_normalize(self):
        plain = load_dataset("citeseer")
        norm = load_dataset("citeseer", gcn_normalize=True)
        # Self loops add ~V edges.
        assert norm.graph.num_edges >= plain.graph.num_edges
        assert norm.graph.edge_val is not None

    def test_features_lazy_and_shaped(self):
        ds = load_dataset("mutag")
        x = ds.make_features()
        assert x.shape == (ds.graph.num_vertices, ds.num_features)

    def test_summary_keys(self):
        s = load_dataset("cora").summary()
        for key in ("name", "category", "vertices", "edges", "features", "hidden"):
            assert key in s


def _csr_digest(graph) -> str:
    digest = hashlib.sha256(graph.vertex_ptr.tobytes())
    digest.update(graph.edge_dst.tobytes())
    digest.update(str(graph.num_cols).encode())
    return digest.hexdigest()


# sha256 over (vertex_ptr, edge_dst, num_cols) of every Table IV dataset:
# synthesis must stay byte-identical, or every stored record and report
# digest computed from these graphs goes stale.
PINNED_CSR_DIGESTS = {
    (0, "mutag"): "3a36b4802d5af6f41d7b1658710a3aea2275bfe871a9132a4f004c934c92c9a7",
    (0, "proteins"): "3212ca49ab86c1628dab28c7932c57151d2ac27d7220a74f40edcac6e657e1fc",
    (0, "imdb-bin"): "06df85872cea2724eedfbc2ace0d6dab165147f024366b6c5cbc081c144d648a",
    (0, "collab"): "d59ac1ee658b73c0613f785d9ba6cd9b1b284b07d216e6d370fd56e2e3dc98f8",
    (0, "reddit-bin"): "9e0d01e9b71572f4990c3d8fafede75057ad06a1172a73b1018ea2319458266e",
    (0, "citeseer"): "243e1b7d27fcf29ac5993601a77d05491283a1a67b4132f5813d019db6a0172a",
    (0, "cora"): "726f9d311edb9df8b2a3e70bbdad8e509a37177c4a74d2fce6a953f8003af78f",
    (7, "mutag"): "2fc1996f41f238ff5b4cab3d8a37a7f9bbfa7c428ff16d98ce9355bc09751469",
    (7, "proteins"): "671879f8e35fd3c9362059255eae5f4e0af3fc49deefca855c6387a08e1acd4a",
    (7, "imdb-bin"): "904121498b10e0aabd65d8a2d2035e787a74227e94b00e35909549c9ba843166",
    (7, "collab"): "1379cc9f6798539702ea88f077b0a28fb15794c9d53d267fd274897cbda2687a",
    (7, "reddit-bin"): "e37d120408f7593a3b73a31ddc34c73fff7622344d9a42c10971854de80d14c7",
    (7, "citeseer"): "cd732a8907cfced9ce09fc65846c5669ad08781dc8347e19cf9f0cedfeadfb8c",
    (7, "cora"): "1710bba50d2177ad78d48ee420d7db98e65172ee97d66498d94d36df47542f3b",
}


@pytest.mark.parametrize("seed,name", sorted(PINNED_CSR_DIGESTS))
def test_synthesised_csr_arrays_are_pinned(seed, name):
    graph = load_dataset(name, seed=seed).graph
    assert _csr_digest(graph) == PINNED_CSR_DIGESTS[seed, name]
