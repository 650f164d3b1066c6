import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrex import infofilter
from aggrex.data import FeatureSchema
from aggrex.infofilter import (
    EPS_MI,
    BinAssignment,
    PartitionLeaves,
    bin_partition,
    build_histograms,
    forward_select,
    select_informative_features,
)
from aggrex.sampler import sample_ball

from oracles import cond_mutual_info, dense_cmi_scores, encode, selection_trace


def mi_oracle(feature, labels, leaves, bins):
    """Plug-in conditional MI from the full per-leaf contingency table.

    Independent of the production path: pure-python Counters, explicit
    probabilities, no shared helpers.
    """
    n_total = bins.n_samples
    total = 0.0
    for leaf in leaves:
        size = len(leaf)
        cells = Counter()
        row = Counter()
        col = Counter()
        for x in leaf:
            b = int(bins.by_feature[feature, x])
            y = int(labels[x])
            cells[(b, y)] += 1
            row[b] += 1
            col[y] += 1
        for (b, y), c in cells.items():
            p_joint = c / size
            p_b = row[b] / size
            p_y = col[y] / size
            total += (c / n_total) * math.log(p_joint / (p_b * p_y))
    return total


def random_bins(rng, n, m, max_bins=3):
    """Random BinAssignment built directly."""
    n_bins = tuple(int(rng.integers(1, max_bins + 1)) for _ in range(m))
    return BinAssignment(n_bins, np.array([rng.integers(0, nb, size=n) for nb in n_bins], dtype=np.int32))


def random_leaves(rng, n):
    """Random disjoint index sets; some samples may be left out."""
    perm = rng.permutation(n)
    kept = perm[: int(rng.integers(max(2, n // 2), n + 1))]
    n_leaves = int(rng.integers(1, 4))
    chunks = np.array_split(kept, n_leaves)
    chunks = [c for c in chunks if c.size]
    return PartitionLeaves(np.concatenate(chunks), np.array([c.size for c in chunks]))


class TestEstimatorOracle:
    def test_matches_oracle_on_200_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(4, 51))
            m = int(rng.integers(1, 5))
            bins = random_bins(rng, n, m)
            labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
            leaves = random_leaves(rng, n)
            f = int(rng.integers(0, m))
            got = cond_mutual_info(f, labels, leaves, bins)
            want = mi_oracle(f, labels, leaves, bins)
            assert abs(got - want) <= 1e-12
            assert got >= -1e-12

    def test_perfect_binary_copy_is_ln2(self):
        n = 40
        values = np.array([i % 2 for i in range(n)])
        bins = BinAssignment((2,), values[None, :].astype(np.int32))
        leaves = PartitionLeaves.whole(n)
        got = cond_mutual_info(0, values, leaves, bins)
        assert abs(got - math.log(2.0)) <= 1e-12

    def test_constant_feature_zero(self):
        rng = np.random.default_rng(3)
        n = 30
        bins = BinAssignment((1,), np.zeros((1, n), dtype=np.int32))
        labels = rng.integers(0, 3, size=n)
        assert cond_mutual_info(0, labels, PartitionLeaves.whole(n), bins) == 0.0

    def test_uniform_product_joint_zero(self):
        # joint uniform over 2x2 cells factorizes exactly
        labels = np.array([0, 1, 0, 1])
        bins = BinAssignment((2,), np.array([[0, 0, 1, 1]], dtype=np.int32))
        got = cond_mutual_info(0, labels, PartitionLeaves.whole(4), bins)
        assert abs(got) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 40
            bins = random_bins(rng, n, 2, max_bins=3)
            labels = rng.integers(0, 3, size=n)
            leaves = random_leaves(rng, n)
            base = cond_mutual_info(0, labels, leaves, bins)

            label_perm = rng.permutation(3)
            relabeled = label_perm[labels]
            assert abs(cond_mutual_info(0, relabeled, leaves, bins) - base) <= 1e-12

            nb = bins.n_bins[0]
            bin_perm = rng.permutation(nb)
            remapped = bins.by_feature.copy()
            remapped[0] = bin_perm[bins.by_feature[0]]
            rebinned = BinAssignment(bins.n_bins, remapped)
            assert abs(cond_mutual_info(0, labels, leaves, rebinned) - base) <= 1e-12

    def test_feature_out_of_range(self):
        bins = random_bins(np.random.default_rng(0), 10, 2)
        with pytest.raises(IndexError):
            cond_mutual_info(5, np.zeros(10, dtype=int), PartitionLeaves.whole(10), bins)


class TestHistograms:
    def schema(self, m_cont, m_bin):
        return FeatureSchema.mixed(m_cont, m_bin)

    def as_samples(self, points):
        from aggrex.sampler import SampleSet

        return SampleSet(np.asarray(points, dtype=float))

    def test_binary_column_identity(self):
        schema = self.schema(0, 1)
        s = self.as_samples([[0.0], [1.0], [1.0], [0.0]])
        bins = build_histograms(s, schema)
        assert bins.n_bins == (2,)
        assert list(bins.by_feature[0]) == [0, 1, 1, 0]

    def test_equal_width_three_bins(self):
        schema = self.schema(1, 0)
        s = self.as_samples([[0.0], [0.5], [1.0]])
        bins = build_histograms(s, schema, max_bins=3)
        assert bins.n_bins == (3,)
        assert list(bins.by_feature[0]) == [0, 1, 2]

    def test_constant_column_single_bin(self):
        schema = self.schema(1, 0)
        s = self.as_samples([[2.0], [2.0], [2.0]])
        bins = build_histograms(s, schema)
        assert bins.n_bins == (1,)
        assert np.all(bins.by_feature[0] == 0)

    def test_max_value_lands_in_top_bin(self):
        schema = self.schema(1, 0)
        s = self.as_samples([[float(v)] for v in range(10)])
        bins = build_histograms(s, schema, max_bins=3)
        assert bins.by_feature[0, -1] == 2


class TestBinPartition:
    def make_bins(self, column, nb):
        return BinAssignment((nb,), np.asarray(column, dtype=np.int32)[None, :])

    def test_two_bin_split(self):
        # first four samples in the low bin, the rest in the high bin
        p = 9
        column = [0] * 4 + [1] * (p - 4)
        bins = self.make_bins(column, 2)
        out = bin_partition(bins, PartitionLeaves.whole(p), 0)
        assert [list(leaf) for leaf in out] == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]

    def test_leaf_in_single_bin_unchanged(self):
        bins = self.make_bins([1, 1, 1, 1], 2)
        out = bin_partition(bins, PartitionLeaves.whole(4), 0)
        assert [list(leaf) for leaf in out] == [[0, 1, 2, 3]]

    def test_singleton_cells_dropped(self):
        bins = self.make_bins([0, 0, 1], 2)
        out = bin_partition(bins, PartitionLeaves.whole(3), 0)
        assert [list(leaf) for leaf in out] == [[0, 1]]

    def test_disjoint_output(self):
        rng = np.random.default_rng(11)
        bins = self.make_bins(rng.integers(0, 3, size=30), 3)
        out = bin_partition(bins, PartitionLeaves.whole(30), 0)
        seen = set()
        for leaf in out:
            assert not (seen & set(leaf.tolist()))
            seen |= set(leaf.tolist())


    def test_matches_per_leaf_per_bin_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            bins = random_bins(rng, n, 2)
            leaves = random_leaves(rng, n)
            min_cell = int(rng.integers(0, 4))
            want = [
                leaf[bins.by_feature[1, leaf] == bv]
                for leaf in leaves
                for bv in range(bins.n_bins[1])
            ]
            want = [cell.tolist() for cell in want if cell.size >= min_cell]
            got = bin_partition(bins, leaves, 1, min_cell=min_cell)
            assert [cell.tolist() for cell in got] == want


def tuple_of_leaves_partition(bins, leaves, feature, min_cell):
    """The per-leaf partition the flat one replaced: each leaf's cells in bin order, one tuple."""
    cells = (leaf[bins.by_feature[feature, leaf] == b] for leaf in leaves for b in range(bins.n_bins[feature]))
    return tuple(cell for cell in cells if cell.size >= min_cell)


class TestFlatPartition:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 80), st.integers(1, 5), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_rounds_give_the_tuple_of_leaves_cells_in_order(self, n, m, min_cell, seed):
        # every feature in turn, each round fed the last round's partition,
        # empty cells kept when min_cell is 0
        rng = np.random.default_rng(seed)
        bins = random_bins(rng, n, m, max_bins=4)
        flat = random_leaves(rng, n)
        want = tuple(flat)
        for feature in rng.permutation(m).tolist():
            flat = bin_partition(bins, flat, feature, min_cell=min_cell)
            want = tuple_of_leaves_partition(bins, want, feature, min_cell)
            assert [cell.tolist() for cell in flat] == [cell.tolist() for cell in want]
            assert len(flat) == len(want) and flat.empty == (not want)
            assert flat.leaf_of.tolist() == [k for k, cell in enumerate(want) for _ in cell]


class TestSelection:
    def test_all_constant_terminates(self):
        n = 20
        bins = BinAssignment((1, 1), np.zeros((2, n), dtype=np.int32))
        selected, rounds = forward_select(bins, np.arange(n) % 2, 2)
        assert selected == ()
        assert [(r.selected, r.leaf_count) for r in rounds] == [(None, 1)]

    def test_perfect_predictor_selected_first(self):
        # 16 samples: feature 1 equals the label, features 0 and 2 cycle
        # independently of it; verified by direct MI tables
        n = 16
        labels = np.array([i % 2 for i in range(n)])
        f_noise_a = np.array([(i // 2) % 2 for i in range(n)], dtype=np.int32)
        f_copy = labels.astype(np.int32)
        f_noise_b = np.array([(i // 4) % 2 for i in range(n)], dtype=np.int32)
        bins = BinAssignment((2, 2, 2), np.array([f_noise_a, f_copy, f_noise_b]))
        leaves = PartitionLeaves.whole(n)
        by_oracle = {f: mi_oracle(f, labels, leaves, bins) for f in range(3)}
        assert by_oracle[1] == max(by_oracle.values())
        selected, rounds = forward_select(bins, labels, 2)
        assert rounds[0].selected == 1
        assert selected == (1,)

    def test_mi_tie_lower_index(self):
        n = 12
        labels = np.array([i % 2 for i in range(n)])
        copy = labels.astype(np.int32)
        bins = BinAssignment((2, 2), np.array([copy, copy]))
        selected, rounds = forward_select(bins, labels, 2)
        assert rounds[0].scores[0] == rounds[0].scores[1]
        assert selected == (0,)

    def test_selected_feature_scores_zero_after_partition(self):
        rng = np.random.default_rng(21)
        n = 60
        by_feature = np.array([rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 3, n)], dtype=np.int32)
        bins = BinAssignment((3, 2, 3), by_feature)
        labels = rng.integers(0, 2, n)
        chosen = forward_select(bins, *encode(labels))[0][0]
        leaves = bin_partition(bins, PartitionLeaves.whole(n), chosen)
        assert abs(cond_mutual_info(chosen, labels, leaves, bins)) <= 1e-12

    def test_empty_unselected_returns_empty(self):
        bins = BinAssignment((), np.zeros((0, 5), dtype=np.int32))
        assert forward_select(bins, np.zeros(5, dtype=int), 1) == ((), [])

    def test_all_leaves_dropped_stops(self):
        # two samples land in different bins: both cells are singletons and
        # get dropped, so the loop stops with the one selected feature
        bins = BinAssignment((2,), np.array([[0, 1]], dtype=np.int32))
        selected, rounds = forward_select(bins, np.array([0, 1]), 2)
        assert selected == (0,)
        assert [(r.selected, r.leaf_count) for r in rounds] == [(0, 0)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 80),
        st.integers(1, 6),
        st.integers(1, 5),
        st.sampled_from([0.0, EPS_MI, 0.05, math.inf]),
        st.integers(0, 2**32 - 1),
    )
    def test_rounds_record_the_selection(self, n, m, n_labels, eps_mi, seed):
        # the picks are the selection; only a round stopped on eps_mi picks
        # None; each leaf count is that of the bin_partition chain so far
        rng = np.random.default_rng(seed)
        bins = random_bins(rng, n, m, max_bins=4)
        selected, rounds = forward_select(bins, *encode(rng.integers(0, n_labels, size=n)), eps_mi)
        picks = [r.selected for r in rounds]
        assert [f for f in picks if f is not None] == list(selected)
        leaves = PartitionLeaves.whole(n)
        for k, record in enumerate(rounds):
            assert sorted(record.scores) == sorted(set(range(m)) - set(selected[:k]))
            if record.selected is not None:
                assert record.scores[record.selected] == max(record.scores.values()) > eps_mi
                leaves = bin_partition(bins, leaves, record.selected)
            assert record.leaf_count == len(leaves)
        stopped_on_eps = max(rounds[-1].scores.values()) <= eps_mi
        assert (rounds[-1].selected is None) == stopped_on_eps
        assert None not in picks[:-1]
        assert stopped_on_eps or len(selected) == m or leaves.empty


class TestBatchedScores:
    def test_round_scores_equal_single_feature_estimates(self):
        rng = np.random.default_rng(606)
        for _ in range(60):
            n = int(rng.integers(4, 120))
            m = int(rng.integers(1, 7))
            bins = random_bins(rng, n, m, max_bins=int(rng.integers(1, 5)))
            labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
            leaves = PartitionLeaves.whole(n)
            for record in forward_select(bins, *encode(labels))[1]:
                for f, score in record.scores.items():
                    assert score == cond_mutual_info(f, labels, leaves, bins)
                    assert abs(score - mi_oracle(f, labels, leaves, bins)) <= 1e-12
                if record.selected is not None:
                    leaves = bin_partition(bins, leaves, record.selected)

    @pytest.mark.parametrize("block", [1, 50, 200])
    def test_scores_do_not_depend_on_the_count_blocks(self, monkeypatch, block):
        # a round's features are counted in blocks of at most COUNT_BLOCK
        # codes; every block size gives each feature the same score, bit for bit
        rng = np.random.default_rng(607)
        for _ in range(20):
            n = int(rng.integers(4, 120))
            m = int(rng.integers(2, 9))
            bins = random_bins(rng, n, m, max_bins=int(rng.integers(1, 5)))
            labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
            monkeypatch.setattr(infofilter, "COUNT_BLOCK", 1 << 30)
            want = round_scores(bins, labels)
            monkeypatch.setattr(infofilter, "COUNT_BLOCK", block)
            assert round_scores(bins, labels) == want

    @pytest.mark.parametrize("block", [1 << 16, 50], ids=["one-block", "a-block-per-feature"])
    def test_cell_major_scores_equal_the_dense_formula(self, monkeypatch, block):
        monkeypatch.setattr(infofilter, "COUNT_BLOCK", block)
        rng = np.random.default_rng(608)
        for _ in range(80):
            n = int(rng.integers(4, 150))
            m = int(rng.integers(1, 9))
            bins = random_bins(rng, n, m, max_bins=int(rng.integers(1, 5)))  # one-bin features too
            n_labels = int(rng.integers(1, 13))  # C >= 8 too
            labels = rng.integers(0, n_labels, size=n)
            leaves = random_leaves(rng, n)
            for f in rng.permutation(m)[: int(rng.integers(0, 3))]:
                leaves = bin_partition(bins, leaves, int(f), min_cell=1)
            features = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
            got = infofilter._cmi_scores(features, labels, n_labels, leaves, bins)
            assert got.tobytes() == dense_cmi_scores(features, labels, n_labels, leaves, bins).tobytes()


def round_scores(bins, labels):
    return [record.scores for record in forward_select(bins, *encode(labels))[1]]


class TestEndToEnd:
    def test_constant_labels_select_nothing(self):
        schema = FeatureSchema.mixed(2, 2)
        s = sample_ball(np.array([0.0, 0.0, 0.0, 1.0]), 2.0, 300, schema, seed=1)
        labels = np.zeros(300, dtype=int)
        assert select_informative_features(s, *encode(labels), schema) == ()

    def test_binary_feature_equal_to_label(self):
        schema = FeatureSchema.mixed(2, 2)
        s = sample_ball(np.array([0.0, 0.0, 0.0, 1.0]), 2.0, 500, schema, seed=2)
        labels = s.points[:, 3].astype(int)
        assert select_informative_features(s, *encode(labels), schema) == (3,)

    def test_duplicate_free_and_bounded(self):
        schema = FeatureSchema.mixed(3, 3)
        s = sample_ball(np.zeros(6), 2.0, 400, schema, seed=3)
        labels = (s.points[:, 0] > 0).astype(int) + 2 * s.points[:, 4].astype(int)
        selected = select_informative_features(s, *encode(labels), schema)
        assert len(selected) == len(set(selected))
        assert len(selected) <= 6

    def test_trace_shape(self):
        schema = FeatureSchema.mixed(1, 2)
        s = sample_ball(np.array([0.0, 0.0, 1.0]), 2.0, 200, schema, seed=5)
        labels = s.points[:, 1].astype(int)
        trace = selection_trace(s, labels, schema)
        assert trace["selected"] == [1]
        assert trace["rounds"][0]["selected"] == 1
        assert set(trace["rounds"][0]["scores"]) == {"0", "1", "2"}
        for rec in trace["rounds"]:
            if rec["selected"] is not None:
                assert max(rec["scores"].values()) > 0

    def test_planted_relevance_containment_small(self):
        # three relevant binary features among twelve; labels pure per cell,
        # so selection must stop inside the relevant set
        schema = FeatureSchema.mixed(6, 6)
        relevant = (6, 8, 11)
        hits = 0
        for trial in range(10):
            center = np.zeros(12)
            s = sample_ball(center, 5.0, 800, schema, seed=900 + trial)
            code = (
                4 * s.points[:, relevant[0]].astype(int)
                + 2 * s.points[:, relevant[1]].astype(int)
                + s.points[:, relevant[2]].astype(int)
            )
            labels = code % 5
            selected = select_informative_features(s, *encode(labels), schema)
            if set(selected) <= set(relevant):
                hits += 1
        assert hits >= 9
