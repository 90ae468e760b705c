import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sedmtl import autodiff as ad
from sedmtl import losses
from sedmtl.errors import ArgumentError, DimensionError

from gradcheck import grad_check


class TestEventLoss:
    def test_zero_logits_single_cell(self):
        out = losses.event_loss(ad.Tensor([[[0.0]]]), np.array([[[1.0]]]), np.ones((1, 1)))
        assert_allclose(out.values, math.log(2.0), atol=1e-12)
        out = losses.event_loss(ad.Tensor([[[0.0]]]), np.array([[[0.0]]]), np.ones((1, 1)))
        assert_allclose(out.values, math.log(2.0), atol=1e-12)

    def test_confident_positive(self):
        # s(y) = 0.9 for the active cell: loss is -ln 0.9
        y = math.log(0.9 / 0.1)
        out = losses.event_loss(ad.Tensor([[[y]]]), np.array([[[1.0]]]), np.ones((1, 1)))
        assert_allclose(out.values, -math.log(0.9), atol=1e-12)

    def test_masked_frames_contribute_nothing(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 3, 5))
        roll = (rng.random((1, 3, 5)) < 0.4).astype(float)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        base = losses.event_loss(ad.Tensor(logits), roll, mask).values
        perturbed = logits.copy()
        perturbed[..., 3:] = 100.0
        after = losses.event_loss(ad.Tensor(perturbed), roll, mask).values
        assert base == after

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.event_loss(ad.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 3, 2)), np.ones((1, 3)))
        with pytest.raises(DimensionError):
            losses.event_loss(ad.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2, 3)), np.zeros((1, 4)))
        with pytest.raises(DimensionError):  # no batch axis
            losses.event_loss(ad.Tensor(np.zeros((2, 3))), np.zeros((2, 3)), np.ones(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = ad.Tensor(rng.normal(size=(1, 3, 4)))
        roll = (rng.random((1, 3, 4)) < 0.5).astype(float)
        mask = np.array([[1.0, 1.0, 0.0, 1.0]])
        report = grad_check(lambda t: losses.event_loss(t, roll, mask), [logits])
        assert report.max_rel_err < 1e-6

    def test_batch_is_the_sum_of_its_chunks(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 3, 5))
        roll = (rng.random((2, 3, 5)) < 0.5).astype(float)
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0, 0.0]])
        batched = losses.event_loss(ad.Tensor(logits), roll, mask).item()
        chunks = [
            losses.event_loss(ad.Tensor(logits[i : i + 1]), roll[i : i + 1], mask[i : i + 1])
            for i in range(2)
        ]
        assert_allclose(batched, chunks[0].item() + chunks[1].item(), rtol=1e-14)
        with pytest.raises(DimensionError):
            losses.event_loss(ad.Tensor(logits), roll, mask[0])

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = ad.Tensor(rng.normal(size=(2, 3, 4)))  # (B, M, N)
        roll = (rng.random((2, 3, 4)) < 0.5).astype(float)
        mask = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        report = grad_check(lambda t: losses.event_loss(t, roll, mask), [logits])
        assert report.max_rel_err < 1e-6


class TestSceneHardLoss:
    def test_uniform_logits(self):
        out = losses.scene_hard_loss(ad.Tensor([0.0, 0.0, 0.0, 0.0]), 1)
        assert_allclose(out.values, math.log(4.0), atol=1e-12)

    def test_two_logits(self):
        out = losses.scene_hard_loss(ad.Tensor([1.0, 2.0]), 1)
        assert_allclose(out.values, 0.31326168751822286, atol=1e-12)

    def test_confident_correct_drives_loss_to_zero(self):
        out = losses.scene_hard_loss(ad.Tensor([40.0, 0.0, 0.0]), 0)
        assert out.values < 1e-12

    def test_one_hot_from_scene_index(self):
        # the one-hot target of scene 2 weights only that logit's log-softmax
        logits = np.array([0.5, -1.0, 2.0, 0.0])
        out = losses.scene_hard_loss(ad.Tensor(logits), 2)
        expected = np.log(np.exp(logits).sum()) - logits[2]
        assert_allclose(out.values, expected, atol=1e-12)

    @pytest.mark.parametrize("scene", [-1, 4])
    def test_rejects_scene_index_out_of_range(self, scene):
        with pytest.raises(ArgumentError, match="outside 0..3"):
            losses.scene_hard_loss(ad.Tensor([0.0, 0.0, 0.0, 0.0]), scene)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = ad.Tensor(rng.normal(size=4))
        report = grad_check(lambda t: losses.scene_hard_loss(t, 2), [logits])
        assert report.max_rel_err < 1e-6


class TestDistillTargets:
    def test_uniform_logits(self):
        assert_allclose(losses.distill_targets(np.zeros(4), 2.0), np.full(4, 0.25))

    def test_matches_softmax_values(self):
        assert_allclose(
            losses.distill_targets(np.array([1.0, 2.0]), 1.0),
            [0.2689414213699951, 0.7310585786300049],
            atol=1e-12,
        )

    def test_high_temperature_limit(self):
        p = losses.distill_targets(np.array([1.0, 2.0]), 1000.0)
        assert np.abs(p - 0.5).max() < 1e-3

    def test_overflowing_temperature_is_an_error(self):
        # 2 / 1e-310 is past the largest float: an error, not a NaN label
        with pytest.raises(ArgumentError, match="temperature 1e-310 are not finite"):
            losses.distill_targets(np.array([1.0, 2.0]), 1e-310)


class TestSoftSceneLoss:
    def test_matching_distributions_give_entropy(self):
        # q == p == uniform: cross-entropy equals the entropy ln 4
        out = losses.soft_scene_loss(ad.Tensor(np.zeros(4)), np.full(4, 0.25), 1.0)
        assert_allclose(out.values, math.log(4.0), atol=1e-12)

    def test_one_hot_target_reduces_to_hard_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.normal(scale=3.0, size=4)
            idx = int(rng.integers(0, 4))
            hard = losses.scene_hard_loss(ad.Tensor(logits), idx).values
            soft = losses.soft_scene_loss(ad.Tensor(logits), np.eye(4)[idx], 1.0).values
            assert abs(hard - soft) <= 1e-12

    def test_hand_computed_value(self):
        # -(0.3 ln 0.26894 + 0.7 ln 0.73106), from the softmax of [1, 2]
        out = losses.soft_scene_loss(ad.Tensor([1.0, 2.0]), np.array([0.3, 0.7]), 1.0)
        assert_allclose(out.values, 0.6132616875182228, atol=1e-12)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ArgumentError):
            losses.soft_scene_loss(ad.Tensor([0.0, 0.0]), np.array([0.6, 0.6]), 1.0)

    def test_overflowing_temperature_is_an_error(self):
        # finite logits / 1e-310 are past the largest float: an error naming
        # the temperature, not a NaN loss
        with pytest.raises(ArgumentError, match="^scene logits / temperature 1e-310 are not"):
            losses.soft_scene_loss(ad.Tensor([1.0, 2.0]), np.array([0.3, 0.7]), 1e-310)

    def test_non_finite_logits_are_left_to_the_loss_check(self):
        # a diverging step's logits, under the error state of training's loop
        with np.errstate(over="ignore", invalid="ignore"):
            out = losses.soft_scene_loss(ad.Tensor([np.nan, 2.0]), np.array([0.3, 0.7]), 1e-310)
        assert np.isnan(out.values)

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(4)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        entropy = float(-(p * np.log(p)).sum())
        for _ in range(100):
            w = rng.normal(scale=3.0, size=4)
            out = losses.soft_scene_loss(ad.Tensor(w), p, 1.0).values
            assert out >= entropy - 1e-12
        # equality iff q == p: logits = ln p (any shift) give q = p
        out = losses.soft_scene_loss(ad.Tensor(np.log(p)), p, 1.0).values
        assert abs(out - entropy) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = ad.Tensor(rng.normal(size=4))
        p = np.array([0.4, 0.3, 0.2, 0.1])
        report = grad_check(
            lambda t: losses.soft_scene_loss(t, p, 2.0), [logits]
        )
        assert report.max_rel_err < 1e-6

    def test_gradients_flow_to_student_logits_only(self):
        logits = ad.Tensor([1.0, -1.0, 0.5])
        p = losses.distill_targets(np.array([2.0, 0.0, 1.0]), 2.0)
        with ad.Tape() as tape:
            loss = losses.soft_scene_loss(logits, p, 2.0)
        tape.backward(loss)
        assert logits.grad is not None


class TestCombinedObjectives:
    @pytest.mark.parametrize(
        "event, scene, weight, expected",
        [
            (1.25, 2.0, 0.0, 1.25),
            (1.0, 2.0, 0.0001, 1.0002),
            (1.0, 2.0, 1.0, 3.0),
            (0.75, 0.5, 0.0, 0.75),
            (1.0, 0.5, 1.0, 1.5),
        ],
        ids=["alpha-zero", "alpha-small", "alpha-one", "beta-zero", "beta-one"],
    )
    def test_joint_objective_value(self, event, scene, weight, expected):
        out = losses.joint_objective(ad.Tensor(event), ad.Tensor(scene), weight).values
        if weight == 0.0:
            assert out == event  # a zero weight leaves the event loss exactly
        assert_allclose(out, expected)

    def test_linear_in_weight(self):
        e1, es = ad.Tensor(1.0), ad.Tensor(0.7)
        vals = [losses.joint_objective(e1, es, w).values for w in (0.5, 1.0, 2.0)]
        assert_allclose(vals[1] - vals[0], 0.35, atol=1e-12)
        assert_allclose(vals[2] - vals[1], 0.7, atol=1e-12)

    def test_objective_gradients_reach_both_terms(self):
        rng = np.random.default_rng(6)
        event_logits = ad.Tensor(rng.normal(size=(1, 2, 3)))
        scene_logits = ad.Tensor(rng.normal(size=4))
        roll = np.zeros((1, 2, 3))
        with ad.Tape() as tape:
            e1 = losses.event_loss(event_logits, roll, np.ones((1, 3)))
            e3 = losses.soft_scene_loss(scene_logits, np.full(4, 0.25), 1.0)
            loss = losses.joint_objective(e1, e3, 0.5)
        tape.backward(loss)
        assert event_logits.grad is not None and np.any(event_logits.grad != 0)
        assert scene_logits.grad is not None and np.any(scene_logits.grad != 0)
