"""Every check the library makes on its inputs raises, with its own message.

One test per check that no other test reaches: the arrays handed to the
solver, tapes the reverse pass cannot reverse, hand-built problems,
quadratic specs, the counts and numbers of the configs, the data makers and
the IDX reader and writer.
Each asserts the exception type and a fragment of the message.
"""

import dataclasses
import re
import struct

import numpy as np
import pytest

import bilevelopt as bl
from bilevelopt.data import Dataset, EpisodeSet
from bilevelopt.problem import as_vector

SPEC = bl.InnerSolveSpec(K=3, t=0.1, s=0.1)
HUGE = 10 ** 400   # an int that no float can hold


def degenerate():
    return bl.make_degenerate_quadratic()


class TestVectors:
    """``as_vector`` on lam through ``solve_inner`` and on lam0 through ``run_model``."""

    BAD = [(np.zeros((1, 1)), "must be one-dimensional, got shape (1, 1)"),
           (np.zeros(2), "must have length 1, got 2"),
           (np.array([np.nan]), "contains non-finite entries"),
           (np.array([np.inf]), "contains non-finite entries")]

    @pytest.mark.parametrize("lam, message", BAD)
    def test_solve_inner_lam(self, lam, message):
        with pytest.raises(ValueError, match="lam " + re.escape(message)):
            bl.solve_inner(degenerate(), lam, SPEC)

    @pytest.mark.parametrize("lam0, message", BAD)
    def test_run_model_lam0(self, lam0, message):
        config = bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=3, T=1)
        with pytest.raises(ValueError, match="lam0 " + re.escape(message)):
            bl.run_model(degenerate(), lam0, config)

    def test_a_scalar_is_a_one_entry_vector(self):
        assert np.array_equal(as_vector(0.5, 1), [0.5])
        scalar = bl.solve_inner(degenerate(), np.float64(0.5), SPEC)
        row = bl.solve_inner(degenerate(), np.array([0.5]), SPEC)
        assert np.array_equal(scalar.lam, [0.5])
        assert np.array_equal(scalar.final, row.final)
        assert np.array_equal(scalar.jacobian, row.jacobian)


class TestTape:
    """A tape the reverse pass cannot reverse is refused there, with a ``ValueError``."""

    @staticmethod
    def reverse(composed=False, **kw):
        p = degenerate()
        solved = p if composed else dataclasses.replace(p)
        tape = bl.solve_inner(solved, np.array([0.5]), SPEC)
        assert (tape.jacobian is not None) == composed
        return bl.reverse_hypergradient(p, dataclasses.replace(tape, **kw))

    @pytest.mark.parametrize("vjps", [None, 2, 4], ids=["none", "fewer", "more"])
    def test_vjp_count_other_than_k(self, vjps):
        vjps = None if vjps is None else (None,) * vjps
        with pytest.raises(ValueError, match=r"^tape-mismatch: tape holds neither an \(2, 1\) "
                                             r"jacobian nor one VJP per step$"):
            self.reverse(vjps=vjps)

    # a transposed J_K: tests/test_affine.py::TestOneScan::test_jacobian_shape_is_checked
    @pytest.mark.parametrize("jacobian", [np.zeros((2, 1, 1)), [[0.0], [0.0]]], ids=["3d", "list"])
    def test_jacobian_other_than_n_by_m(self, jacobian):
        with pytest.raises(ValueError, match="^tape-mismatch: tape holds neither an"):
            self.reverse(composed=True, jacobian=jacobian)

    def test_lam_other_than_a_vector(self):
        with pytest.raises(ValueError, match=re.escape(
                "tape-mismatch: tape final and lam are (2,) and (), problem expects (2,) and (1,)")):
            self.reverse(lam=np.array(0.0))

    @pytest.mark.parametrize("composed", [False, True], ids=["loop", "composed"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_final(self, composed, value):
        with pytest.raises(ValueError, match="^tape final iterate is not finite$"):
            self.reverse(composed, final=np.array([0.0, value]))


class TestProblemDimensions:
    @pytest.mark.parametrize("dims", [(0, 1), (1, 0), (-1, 2)])
    def test_dimension_below_one(self, dims):
        zero = lambda w, lam: 0.0  # noqa: E731
        with pytest.raises(ValueError, match="dimensions must be at least 1"):
            bl.BilevelProblem(inner_dim=dims[0], outer_dim=dims[1], g_value=zero,
                              h_value=zero, grad1_g=zero, grad2_g=zero, grad1_h=zero)


class TestQuadraticSpec:
    @staticmethod
    def spec(**kw):
        arrays = dict(A_h=np.eye(2), B_h=np.ones((2, 1)), d_h=np.zeros(2), A_g=np.eye(2),
                      c_g=np.zeros(2))
        arrays.update(kw)
        return bl.QuadraticBilevelSpec(**arrays)

    @pytest.mark.parametrize("field, value", [("A_h", np.eye(2)[:, :1]),
                                              ("A_g", np.eye(3))])
    def test_non_square_or_mismatched_forms(self, field, value):
        with pytest.raises(ValueError, match="quadratic forms must be square and matching"):
            self.spec(**{field: value})

    @pytest.mark.parametrize("field, value", [("B_h", np.ones((3, 1))),
                                              ("d_h", np.zeros(3)),
                                              ("c_g", np.zeros((2, 1)))])
    def test_inconsistent_shapes(self, field, value):
        with pytest.raises(ValueError, match="inconsistent quadratic spec shapes"):
            self.spec(**{field: value})

    @pytest.mark.parametrize("field", ["A_h", "A_g"])
    def test_asymmetric_form(self, field):
        with pytest.raises(ValueError, match="quadratic forms must be symmetric"):
            self.spec(**{field: np.array([[1.0, 0.5], [0.0, 1.0]])})


class TestProblemMakers:
    def test_hypercleaning_feature_dimensions_differ(self):
        train = bl.gen_synthetic(0, 20, 4, 2, 3.0)
        val = bl.gen_synthetic(0, 20, 5, 2, 3.0)
        with pytest.raises(ValueError, match="train/validation feature dimensions differ"):
            bl.make_hypercleaning(train, val)

    @staticmethod
    def episodes(way=2, y_val=(0, 1)):
        return EpisodeSet(X_tr=np.zeros((1, 2, 3)), y_tr=np.array([[0, 1]]),
                          X_val=np.zeros((1, 2, 3)), y_val=np.array([y_val]), way=way)

    def test_hyperrep_rep_dim_zero(self):
        with pytest.raises(ValueError, match="rep_dim must be at least 1"):
            bl.make_hyperrep(self.episodes(), 0)

    def test_hyperrep_no_episodes(self):
        empty = EpisodeSet(X_tr=np.zeros((0, 2, 3)), y_tr=np.zeros((0, 2), np.int64),
                           X_val=np.zeros((0, 2, 3)), y_val=np.zeros((0, 2), np.int64), way=2)
        with pytest.raises(ValueError, match="bad-episode: empty episode set"):
            bl.make_hyperrep(empty, 2)

    def test_hyperrep_empty_split(self):
        empty = EpisodeSet(X_tr=np.zeros((1, 0, 3)), y_tr=np.zeros((1, 0), np.int64),
                           X_val=np.zeros((1, 2, 3)), y_val=np.array([[0, 1]]), way=2)
        with pytest.raises(ValueError, match="bad-episode: empty episode set or split"):
            bl.make_hyperrep(empty, 2)

    @pytest.mark.parametrize("episodes", [dict(way=1), dict(y_val=(0, 2)), dict(y_val=(0, -1))],
                             ids=["train", "val", "negative"])
    def test_hyperrep_label_at_least_way(self, episodes):
        with pytest.raises(ValueError, match="bad-episode: episode labels exceed way"):
            bl.make_hyperrep(self.episodes(**episodes), 2)


class TestDataset:
    @pytest.mark.parametrize("X, y, mask", [
        (np.zeros(3), np.zeros(3, np.int64), np.zeros(3, bool)),
        (np.zeros((3, 2)), np.zeros(2, np.int64), np.zeros(2, bool)),
        (np.zeros((3, 2)), np.zeros(3, np.int64), np.zeros(2, bool)),
    ], ids=["1d-features", "label-count", "mask-count"])
    def test_inconsistent_shapes(self, X, y, mask):
        with pytest.raises(ValueError, match="inconsistent dataset shapes"):
            Dataset(X=X, y=y, mask=mask, C=2)

    def test_non_finite_features(self):
        with pytest.raises(ValueError, match="features contain non-finite entries"):
            Dataset(X=np.array([[0.0], [np.nan]]), y=np.zeros(2, np.int64),
                    mask=np.zeros(2, bool), C=2)

    @pytest.mark.parametrize("y, C", [((0, -1), 2), ((0, 2), 2), ((0, 0), 0)])
    def test_labels_outside_classes(self, y, C):
        with pytest.raises(ValueError, match=r"bad-label: labels must lie in \[0, C\)"):
            Dataset(X=np.zeros((2, 1)), y=np.array(y), mask=np.zeros(2, bool), C=C)


class TestSyntheticData:
    @pytest.mark.parametrize("margin", [0.0, -1.0])
    def test_margin_not_positive(self, margin):
        with pytest.raises(ValueError, match="margin must be positive"):
            bl.gen_synthetic(0, 10, 3, 2, margin)

    def test_fewer_features_than_classes(self):
        with pytest.raises(ValueError, match="feature dimension 2 cannot place 3 separated"):
            bl.gen_synthetic(0, 10, 2, 3, 1.0)

    @pytest.mark.parametrize("rho", [-0.1, 1.5, float("nan")])
    def test_corruption_rate_outside_unit_interval(self, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
            bl.corrupt_labels(bl.gen_synthetic(0, 10, 3, 2, 1.0), rho, 0)


class TestEpisodes:
    DS = bl.gen_synthetic(0, 60, 6, 3, 3.0)

    @pytest.mark.parametrize("way, shot, val_per_class", [(0, 1, 1), (3, 0, 1), (3, 1, 0)],
                             ids=["way", "shot", "val_per_class"])
    def test_size_below_one(self, way, shot, val_per_class):
        with pytest.raises(ValueError, match=f"episode-too-small: way, shot and "
                                             f"val_per_class must be at least 1, got "
                                             f"{way}, {shot} and {val_per_class}"):
            bl.make_episodes(self.DS, way, shot, val_per_class, 2, 0)

    def test_negative_task_count(self):
        with pytest.raises(ValueError, match="episode-count: n_tasks must be at least 0, got -1"):
            bl.make_episodes(self.DS, 3, 1, 1, -1, 0)

    @pytest.mark.parametrize("field, shape", [("X_tr", (2, 3)), ("y_tr", (1, 3)),
                                              ("X_val", (1, 2, 4)), ("y_val", (2, 2))])
    def test_split_shapes_disagree(self, field, shape):
        arrays = dict(X_tr=np.zeros((1, 2, 3)), y_tr=np.zeros((1, 2), np.int64),
                      X_val=np.zeros((1, 2, 3)), y_val=np.zeros((1, 2), np.int64))
        arrays[field] = np.zeros(shape)
        with pytest.raises(ValueError, match="bad-episode: split shapes"):
            EpisodeSet(**arrays, way=2)


IMAGES, LABELS = 0x00000803, 0x00000801


class TestIdx:
    @staticmethod
    def write(tmp_path, images, labels):
        (tmp_path / "img").write_bytes(images)
        (tmp_path / "lab").write_bytes(labels)
        return tmp_path / "img", tmp_path / "lab"

    # a good image file (two 1 x 1 images) and label file, and each fault
    # of either with its exact message
    GOOD = {"img": struct.pack(">IIII", IMAGES, 2, 1, 1) + bytes([5, 9]),
            "lab": struct.pack(">II", LABELS, 2) + bytes([0, 1])}
    FAULTS = {
        ("img", "short-header"): (struct.pack(">III", IMAGES, 2, 1),
                                  "idx-short-header: {path} holds 12 bytes, "
                                  "fewer than its 16-byte header"),
        ("lab", "short-header"): (struct.pack(">I", LABELS) + bytes([0, 0]),
                                  "idx-short-header: {path} holds 6 bytes, "
                                  "fewer than its 8-byte header"),
        ("img", "bad-magic"): (struct.pack(">IIII", LABELS, 2, 1, 1) + bytes([5, 9]),
                               "idx-bad-magic: expected 0x00000803 in image file, "
                               "got 0x00000801"),
        ("lab", "bad-magic"): (struct.pack(">II", IMAGES, 2) + bytes([0, 1]),
                               "idx-bad-magic: expected 0x00000801 in label file, "
                               "got 0x00000803"),
        ("img", "truncated"): (struct.pack(">IIII", IMAGES, 2, 1, 1) + bytes([5]),
                               "idx-count-mismatch: image file truncated"),
        ("lab", "truncated"): (struct.pack(">II", LABELS, 2) + bytes([0]),
                               "idx-count-mismatch: label file truncated"),
    }

    @pytest.mark.parametrize("name, fault", list(FAULTS), ids=[f"{n}-{f}" for n, f in FAULTS])
    def test_fault_names_its_file(self, tmp_path, name, fault):
        files = {**self.GOOD, name: self.FAULTS[name, fault][0]}
        paths = self.write(tmp_path, files["img"], files["lab"])
        with pytest.raises(ValueError) as info:
            bl.load_idx(*paths)
        assert str(info.value) == self.FAULTS[name, fault][1].format(path=tmp_path / name)

    def test_bytes_past_the_payload_are_ignored(self, tmp_path):
        ds = bl.load_idx(*self.write(tmp_path, self.GOOD["img"] + bytes([7]),
                                     self.GOOD["lab"] + bytes([1, 1])))
        np.testing.assert_array_equal(ds.X, [[5 / 255], [9 / 255]])
        np.testing.assert_array_equal(ds.y, [0, 1])

    def test_a_header_claiming_more_than_the_file_holds_is_truncated(self, tmp_path):
        # 2^32 - 1 images of 2^32 - 1 x 2^32 - 1 bytes: refused without allocating them
        top = 2 ** 32 - 1
        paths = self.write(tmp_path, struct.pack(">IIII", IMAGES, top, top, top) + bytes([5]),
                           self.GOOD["lab"])
        with pytest.raises(ValueError, match="^idx-count-mismatch: image file truncated$"):
            bl.load_idx(*paths)

    @staticmethod
    def dataset(X=None, C=2):
        X = np.full((2, 4), 0.5) if X is None else X
        return Dataset(X=X, y=np.array([0, 1]), mask=np.zeros(2, bool), C=C)

    def test_shape_not_matching_features(self, tmp_path):
        with pytest.raises(ValueError, match="rows\\*cols = 6 does not match feature dim 4"):
            bl.write_idx(self.dataset(), tmp_path / "img", tmp_path / "lab", rows=2, cols=3)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_features_outside_unit_interval(self, tmp_path, value):
        X = np.full((2, 4), 0.5)
        X[1, 2] = value
        with pytest.raises(ValueError, match=r"features must lie in \[0, 1\]"):
            bl.write_idx(self.dataset(X), tmp_path / "img", tmp_path / "lab")

    def test_labels_beyond_one_byte(self, tmp_path):
        with pytest.raises(ValueError, match="labels beyond one byte"):
            bl.write_idx(self.dataset(C=257), tmp_path / "img", tmp_path / "lab")
        assert not (tmp_path / "img").exists()


class TestCounts:
    # a bool is an int to Python, but True is no count
    @pytest.mark.parametrize("make, name", [
        (lambda: bl.InnerSolveSpec(K=True, t=0.1, s=0.1), "K"),
        (lambda: bl.CheckConfig(n_points=True), "n_points"),
        (lambda: bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=5, T=3, seed=False), "seed"),
    ], ids=["InnerSolveSpec", "CheckConfig", "SolveConfig"])
    def test_a_bool_is_not_a_count(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least"):
            make()


class TestNumbers:
    """One number rule for every float setting: no bool, no non-number, no int past a float."""

    @pytest.mark.parametrize("make, name", [
        (lambda v: bl.SolveConfig(t=v, s=0.1, eta=0.5, K=5, T=3), "t"),
        (lambda v: bl.SolveConfig(t=0.1, s=0.1, eta=v, K=5, T=3), "eta"),
        (lambda v: bl.InnerSolveSpec(K=5, t=0.1, s=v), "s"),
        (lambda v: bl.InnerSolveSpec(K=5, t=0.1, s=0.1, alpha_exponent=v), "alpha_exponent"),
        (lambda v: bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=5, T=3, alpha_exponent=v),
         "alpha_exponent"),
        (lambda v: bl.CheckConfig(tol_grad=v), "tol_grad"),
        (lambda v: bl.CheckConfig(tol_hg=v), "tol_hg"),
        (lambda v: bl.hypergradient_fd_oracle(degenerate(), [1.0], SPEC, eps=v), "eps"),
        (lambda v: bl.validate_first_order(degenerate(), [0.0, 0.0], [1.0], eps=v), "eps"),
    ], ids=["SolveConfig.t", "SolveConfig.eta", "InnerSolveSpec.s",
            "InnerSolveSpec.alpha_exponent", "SolveConfig.alpha_exponent", "CheckConfig.tol_grad",
            "CheckConfig.tol_hg", "hypergradient_fd_oracle", "validate_first_order"])
    @pytest.mark.parametrize("value", [True, "0.1", None, HUGE],
                             ids=["bool", "str", "None", "huge"])
    def test_a_non_number_is_refused(self, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            make(value)

    @pytest.mark.parametrize("make", [
        lambda: bl.InnerSolveSpec(K=HUGE, t=0.1, s=0.1),
        lambda: bl.SolveConfig(t=0.1, s=0.1, eta=0.5, K=HUGE, T=3),
    ], ids=["InnerSolveSpec", "SolveConfig"])
    def test_a_K_past_a_float_is_refused(self, make):
        # its last averaging weight is taken as a float
        with pytest.raises(ValueError, match="^K must be a number, got 1000"):
            make()


def test_default_check_configs_unknown_name():
    with pytest.raises(KeyError, match="no default check configs for 'wat'"):
        bl.default_check_configs("wat")
