import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrot import alignment, numerics
from fedrot.alignment import (
    AlignmentTarget,
    ReferenceKind,
    Rotation,
    ScheduleAblation,
    alignment_schedule,
    apply_alignment,
    haar_random_rotation,
    procrustes_rotation,
    scalar_rescale_align,
    select_reference,
    soft_rotation,
)
from fedrot.config import ReferenceMode
from fedrot.errors import NumericError, UsageError
from fedrot.lora import LoraAdapter, semantic_update
from fedrot.numerics import frobenius_norm


def rotation_2d(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestRotation:
    def test_accepts_proper_rotation(self):
        Rotation(rotation_2d(0.7))

    def test_rejects_reflection(self):
        with pytest.raises(NumericError, match="det \\+1"):
            Rotation(np.diag([1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NumericError, match="not orthogonal"):
            Rotation(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_is_a_usage_error(self):
        with pytest.raises(UsageError, match="must be square"):
            Rotation(np.ones((2, 3)))

    def test_identity(self):
        assert Rotation.identity(3).is_identity()
        assert not Rotation(rotation_2d(0.1)).is_identity()


# Factor-A inputs with r = 4, d = 16: a local factor scaled far from an O(1)
# reference, or a correlation matrix M = reference @ local.T with a planted
# rank-deficient or repeated spectrum.
LOCAL_SCALES = {
    "gaussian": 1.0,
    "scale_1e150": 1e150,
    "scale_1e-150": 1e-150,
    "scale_1e-200": 1e-200,
}
PLANTED_SPECTRA = {
    "rank_deficient": (3.0, 1.0, 0.0, 0.0),
    "repeated_sigma": (2.0, 2.0, 1.0, 1.0),
}


def procrustes_inputs(case, rng):
    if case in LOCAL_SCALES:
        local = LOCAL_SCALES[case] * rng.standard_normal((4, 16))
        return local, rng.standard_normal((4, 16))
    # Orthonormal rows make M = u diag(sigma) v up to rounding.
    local = np.linalg.qr(rng.standard_normal((16, 4)))[0].T
    u, v = (haar_random_rotation(4, seed=rng.integers(1 << 30)).r for _ in range(2))
    return local, u @ np.diag(PLANTED_SPECTRA[case]) @ v @ local


class TestProcrustes:
    def test_recovers_planted_rotation_a(self):
        # reference = R^T-rotated local recovers R exactly.
        rng = np.random.default_rng(0)
        for _ in range(20):
            local = rng.standard_normal((3, 8))
            planted = haar_random_rotation(3, seed=rng.integers(1 << 30)).r
            reference = planted.T @ local
            rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
            np.testing.assert_allclose(rot.r, planted, atol=1e-9)

    def test_recovers_planted_rotation_b(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            local = rng.standard_normal((8, 3))
            planted = haar_random_rotation(3, seed=rng.integers(1 << 30)).r
            reference = local @ planted
            rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_B)
            np.testing.assert_allclose(rot.r, planted, atol=1e-9)

    def test_local_equal_reference_gives_identity(self):
        rng = np.random.default_rng(2)
        local = rng.standard_normal((4, 9))
        rot = procrustes_rotation(local, local.copy(), AlignmentTarget.FACTOR_A)
        assert frobenius_norm(rot.r - np.eye(4)) <= 1e-10

    def test_beats_random_rotations(self):
        # Closed form is optimal: no Haar sample achieves a larger
        # tr(R M), i.e. a smaller alignment residual |R^T local - reference|.
        # The rotation is special orthogonal and leaves b a unchanged.
        rng = np.random.default_rng(3)
        haar = [haar_random_rotation(4, seed=[3, k]).r for k in range(200)]
        for case in [*LOCAL_SCALES, *PLANTED_SPECTRA]:
            for _ in range(10):
                local, reference = procrustes_inputs(case, rng)
                rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
                np.testing.assert_allclose(
                    rot.r.T @ rot.r, np.eye(4), atol=1e-12, err_msg=case
                )
                assert np.linalg.det(rot.r) == pytest.approx(1.0, abs=1e-12), case
                m = reference @ local.T
                tol = 1e-9 * np.abs(m).sum()
                best = np.trace(rot.r @ m)
                assert all(np.trace(q @ m) <= best + tol for q in haar), case
                ad = LoraAdapter(rng.standard_normal((8, 4)), local)
                update = semantic_update(ad)
                np.testing.assert_allclose(
                    semantic_update(apply_alignment(ad, rot)),
                    update,
                    rtol=0,
                    atol=1e-12 * np.abs(update).max(),
                    err_msg=case,
                )

    def test_reflection_case_stays_special_orthogonal(self):
        # A correlation matrix with negative determinant forces the
        # det-correction branch.
        local = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        reference = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        rot = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
        assert np.linalg.det(rot.r) == pytest.approx(1.0, abs=1e-12)

    def test_zero_correlation_returns_identity(self):
        local = np.array([[1.0, 0.0], [0.0, 1.0]])
        rot = procrustes_rotation(local, np.zeros((2, 2)), AlignmentTarget.FACTOR_A)
        assert rot.is_identity()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            procrustes_rotation(
                np.zeros((2, 3)), np.zeros((2, 4)), AlignmentTarget.FACTOR_A
            )

    def test_wide_factor_required(self):
        with pytest.raises(UsageError):
            procrustes_rotation(
                np.ones((4, 2)), np.ones((4, 2)), AlignmentTarget.FACTOR_A
            )


class TestSoftRotation:
    def test_lambda_zero_is_identity_exactly(self):
        hard = haar_random_rotation(4, seed=10)
        soft = soft_rotation(hard, 0.0)
        assert soft.is_identity()

    def test_lambda_one_is_hard_exactly(self):
        hard = haar_random_rotation(4, seed=11)
        assert soft_rotation(hard, 1.0) is hard

    def test_intermediate_2d_is_geodesic(self):
        # In SO(2), projecting (1-lam) I + lam R(theta) lands on R(phi)
        # with tan(phi) = lam sin(theta) / (1 - lam + lam cos(theta)).
        theta, lam = 0.9, 0.3
        soft = soft_rotation(Rotation(rotation_2d(theta)), lam)
        phi = math.atan2(lam * math.sin(theta), 1.0 - lam + lam * math.cos(theta))
        np.testing.assert_allclose(soft.r, rotation_2d(phi), atol=1e-10)

    def test_shrinkage_bound(self):
        rng = np.random.default_rng(12)
        for i in range(100):
            rank = int(rng.integers(2, 6))
            hard = haar_random_rotation(rank, seed=[12, i])
            lam = float(rng.uniform())
            soft = soft_rotation(hard, lam)
            eye = np.eye(rank)
            assert frobenius_norm(soft.r - eye) <= 2.0 * lam * frobenius_norm(
                hard.r - eye
            ) + 1e-10

    def test_out_of_range_lambda_rejected(self):
        with pytest.raises(UsageError):
            soft_rotation(Rotation.identity(2), 1.5)

    def test_singular_blend_handled(self):
        # lam = 0.5 with a 180-degree rotation makes the blend singular;
        # the result must still be a valid rotation.
        half_turn = Rotation(rotation_2d(math.pi))
        soft = soft_rotation(half_turn, 0.5)
        assert np.linalg.det(soft.r) == pytest.approx(1.0, abs=1e-9)


def count_svds(monkeypatch) -> list:
    """Record the matrices ``alignment`` passes to ``numerics.svd``."""
    calls = []

    def counted(m):
        calls.append(m)
        return numerics.svd(m)

    monkeypatch.setattr(alignment, "svd", counted)
    return calls


class TestSoftRotationAdversarial:
    """Soft rotations of the hard rotations that Procrustes returns for
    the adversarial inputs above, and of blends that are singular."""

    @pytest.mark.parametrize("case", [*LOCAL_SCALES, *PLANTED_SPECTRA])
    @pytest.mark.parametrize("lam", [0.3, 0.7])
    def test_stays_special_orthogonal_and_shrinks(self, case, lam):
        rng = np.random.default_rng(40)
        eye = np.eye(4)
        for _ in range(10):
            local, reference = procrustes_inputs(case, rng)
            hard = procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A)
            soft = soft_rotation(hard, lam)
            np.testing.assert_allclose(soft.r.T @ soft.r, eye, atol=1e-12, err_msg=case)
            assert np.linalg.det(soft.r) == pytest.approx(1.0, abs=1e-12), case
            bound = 2.0 * lam * frobenius_norm(hard.r - eye)
            assert frobenius_norm(soft.r - eye) <= bound + 1e-10, case

    @pytest.mark.parametrize("case", [c for c in LOCAL_SCALES if c != "gaussian"])
    def test_scale_free(self, case):
        # The correlation matrix scales with the local factor, and neither
        # its nearest rotation nor the soft rotation depends on the scale.
        rng = np.random.default_rng(41)
        for _ in range(10):
            local, reference = procrustes_inputs(case, rng)
            unscaled = local / LOCAL_SCALES[case]
            for lam in (0.3, 1.0):
                got = soft_rotation(
                    procrustes_rotation(local, reference, AlignmentTarget.FACTOR_A), lam
                )
                want = soft_rotation(
                    procrustes_rotation(unscaled, reference, AlignmentTarget.FACTOR_A),
                    lam,
                )
                np.testing.assert_allclose(got.r, want.r, atol=1e-12, err_msg=case)

    def test_repeated_blend_spectrum_is_the_geodesic(self):
        # Two equal plane rotations blend to a multiple of a rotation, whose
        # four singular values are equal; the projection is still unique.
        theta, lam = 2.0, 0.4
        block = np.zeros((4, 4))
        block[:2, :2] = block[2:, 2:] = rotation_2d(theta)
        soft = soft_rotation(Rotation(block), lam)
        phi = math.atan2(lam * math.sin(theta), 1.0 - lam + lam * math.cos(theta))
        want = np.zeros((4, 4))
        want[:2, :2] = want[2:, 2:] = rotation_2d(phi)
        np.testing.assert_allclose(soft.r, want, atol=1e-12)

    @pytest.mark.parametrize("rank", [2, 4])
    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_singular_blend_retries_once(self, monkeypatch, rank, offset):
        # A half turn in one plane blended halfway is singular (or within
        # the 1e-12 threshold of it): the blend is formed again at
        # lam + 1e-9, whose SVD is well posed, and projects to the geodesic
        # point of that lam.
        calls = count_svds(monkeypatch)
        theta, lam = math.pi - offset, 0.5 + 1e-9
        half_turn = np.eye(rank)
        half_turn[:2, :2] = rotation_2d(theta)
        soft = soft_rotation(Rotation(half_turn), 0.5)
        assert len(calls) == 2
        _, sigma, _ = numerics.svd(calls[0])
        assert sigma[-1] <= 1e-12
        want = np.eye(rank)
        want[:2, :2] = rotation_2d(
            math.atan2(lam * math.sin(theta), 1.0 - lam + lam * math.cos(theta))
        )
        np.testing.assert_allclose(soft.r, want, atol=1e-6)
        np.testing.assert_allclose(soft.r.T @ soft.r, np.eye(rank), atol=1e-12)
        assert np.linalg.det(soft.r) == pytest.approx(1.0, abs=1e-12)

    def test_regular_blend_solves_once(self, monkeypatch):
        calls = count_svds(monkeypatch)
        soft_rotation(Rotation(rotation_2d(math.pi - 1e-3)), 0.5)
        assert len(calls) == 1


def flip_svd_pairs(monkeypatch, seed) -> list:
    """Make ``np.linalg.svd`` negate random singular pairs, at least one
    per call: column k of ``u`` together with row k of ``vt``.  Returns
    the list of flip signs, one array per call."""
    lapack = np.linalg.svd
    rng = np.random.default_rng(seed)
    flips = []

    def flipped(a, *args, **kwargs):
        u, sigma, vt = lapack(a, *args, **kwargs)
        signs = rng.choice([-1.0, 1.0], size=sigma.shape)
        signs[rng.integers(len(signs))] = -1.0
        flips.append(signs)
        return u * signs, sigma, vt * signs[:, None]

    monkeypatch.setattr(np.linalg, "svd", flipped)
    return flips


@pytest.mark.parametrize("rank", [1, 4, 16, 64])
def test_rotations_blind_to_singular_pair_signs(monkeypatch, rank):
    # A paired sign flip is the +-1 diagonal case of the gauge freedom
    # u vt = (u S)(S vt), so LAPACK's sign choice needs no canonical form:
    # the Procrustes and soft rotations read only det(u vt) and u vt,
    # where each flipped pair cancels exactly.
    rng = np.random.default_rng([50, rank])
    d = rank + 5
    reflect = haar_random_rotation(rank, seed=[50, rank]).r
    reflect[:, 0] *= -1.0
    cases = []
    for target in AlignmentTarget:
        for k in range(4):
            local = rng.standard_normal((rank, d))
            # The last case maps local onto reference by a reflection, so
            # the correlation matrix has det < 0.
            reference = reflect @ local if k == 3 else rng.standard_normal((rank, d))
            assert k < 3 or np.linalg.det(reference @ local.T) < 0.0
            if target is AlignmentTarget.FACTOR_B:
                local, reference = local.T, reference.T
            cases.append((local, reference, target))

    def rotations():
        out = []
        for local, reference, target in cases:
            hard = procrustes_rotation(local, reference, target)
            out += [hard, *(soft_rotation(hard, lam) for lam in (0.3, 0.7))]
        if rank > 1:
            # The half-turn blend at lam 0.5 is singular and retries once.
            half_turn = np.eye(rank)
            half_turn[:2, :2] = rotation_2d(math.pi)
            out.append(soft_rotation(Rotation(half_turn), 0.5))
        return [rot.r.tobytes() for rot in out]

    want = rotations()
    flips = flip_svd_pairs(monkeypatch, rank)
    assert rotations() == want
    assert len(flips) == len(cases) * 3 + (rank > 1) * 2


class TestApplyAlignment:
    def test_preserves_semantic_update(self):
        rng = np.random.default_rng(13)
        for i in range(50):
            ad = LoraAdapter(rng.standard_normal((7, 3)), rng.standard_normal((3, 6)))
            rot = haar_random_rotation(3, seed=[13, i])
            out = apply_alignment(ad, rot)
            drift = frobenius_norm(semantic_update(out) - semantic_update(ad))
            assert drift <= 1e-12 * max(1.0, frobenius_norm(semantic_update(ad)))

    def test_identity_is_bitwise_noop(self):
        rng = np.random.default_rng(14)
        ad = LoraAdapter(rng.standard_normal((5, 2)), rng.standard_normal((2, 5)))
        assert apply_alignment(ad, Rotation.identity(2)) is ad

    def test_rank_mismatch_rejected(self):
        ad = LoraAdapter(np.ones((4, 2)), np.ones((2, 4)))
        with pytest.raises(UsageError):
            apply_alignment(ad, Rotation.identity(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_round_trip(self, seed):
        # Applying a rotation and then its inverse restores the factors.
        rng = np.random.default_rng(seed)
        ad = LoraAdapter(rng.standard_normal((6, 3)), rng.standard_normal((3, 6)))
        rot = haar_random_rotation(3, seed=seed)
        back = apply_alignment(apply_alignment(ad, rot), Rotation(rot.r.T))
        np.testing.assert_allclose(back.b, ad.b, atol=1e-12)
        np.testing.assert_allclose(back.a, ad.a, atol=1e-12)


class TestScalarRescale:
    def test_closed_form(self):
        local = np.array([[2.0, 0.0]])
        reference = np.array([[1.0, 1.0]])
        assert scalar_rescale_align(local, reference) == pytest.approx(0.5)

    def test_minimizes_residual(self):
        rng = np.random.default_rng(15)
        local = rng.standard_normal((3, 4))
        reference = rng.standard_normal((3, 4))
        c = scalar_rescale_align(local, reference)
        best = frobenius_norm(c * local - reference)
        for delta in (-1e-3, 1e-3):
            assert frobenius_norm((c + delta) * local - reference) >= best

    @pytest.mark.parametrize("scale", [0.0, 1e-170])
    def test_zero_local_rejected(self, scale):
        # 1e-170 squared underflows, so the local factor's norm reads 0 too.
        assert scalar_rescale_align(np.full((2, 2), scale), np.ones((2, 2))) is None

    def test_orthogonal_reference_degenerate(self):
        assert scalar_rescale_align(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) is None


class TestHaarRandomRotation:
    def test_member_of_so(self):
        for i in range(50):
            rot = haar_random_rotation(3, seed=i)
            assert np.linalg.det(rot.r) == pytest.approx(1.0, abs=1e-10)
            assert frobenius_norm(rot.r.T @ rot.r - np.eye(3)) <= 1e-10

    def test_rank_one_is_trivial(self):
        assert haar_random_rotation(1, seed=0).r[0, 0] == pytest.approx(1.0)

    def test_deterministic(self):
        assert (haar_random_rotation(4, seed=9).r == haar_random_rotation(4, seed=9).r).all()

    def test_uniform_angle_distribution(self):
        # In SO(2) the Haar measure makes the rotation angle uniform on
        # (-pi, pi]; check coarse histogram uniformity.
        angles = [
            math.atan2(haar_random_rotation(2, seed=i).r[1, 0],
                       haar_random_rotation(2, seed=i).r[0, 0])
            for i in range(2000)
        ]
        counts, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
        assert counts.min() > 2000 / 8 * 0.7

    def test_other_errors_propagate(self, monkeypatch):
        def broken(z):
            raise TypeError("bug inside qr_orthonormal")

        monkeypatch.setattr(alignment, "qr_orthonormal", broken)
        with pytest.raises(TypeError, match="bug inside"):
            haar_random_rotation(3, seed=5)


class TestReferenceSelection:
    def _history(self, rng, n):
        return [
            LoraAdapter(rng.standard_normal((4, 2)), rng.standard_normal((2, 4)))
            for _ in range(n)
        ]

    def test_prev_global(self):
        rng = np.random.default_rng(16)
        history = self._history(rng, 3)
        ref = select_reference(history, ReferenceMode(), [], seed=0)
        assert ref is history[-1]

    def test_older_global_lag(self):
        rng = np.random.default_rng(17)
        history = self._history(rng, 5)
        mode = ReferenceMode(kind=ReferenceKind.OLDER_GLOBAL, lag=3)
        ref = select_reference(history, mode, [], seed=0)
        assert ref is history[2]

    def test_older_global_needs_enough_rounds(self):
        # Until ``lag`` rounds exist, the oldest adapter is the reference.
        rng = np.random.default_rng(18)
        mode = ReferenceMode(kind=ReferenceKind.OLDER_GLOBAL, lag=2)
        for rounds in (1, 2):
            history = self._history(rng, rounds)
            ref = select_reference(history, mode, [], seed=0)
            assert ref is history[0]

    def test_older_global_rejects_small_lag(self):
        with pytest.raises(UsageError):
            ReferenceMode(kind=ReferenceKind.OLDER_GLOBAL, lag=1)

    def test_random_client_deterministic(self):
        rng = np.random.default_rng(19)
        history = self._history(rng, 2)
        snaps = list(history)
        mode = ReferenceMode(kind=ReferenceKind.RANDOM_CLIENT)
        first = select_reference(history, mode, snaps, seed=[0, 2])
        second = select_reference(history, mode, snaps, seed=[0, 2])
        assert first is second

    def test_random_client_round_one_fallback(self):
        rng = np.random.default_rng(20)
        history = self._history(rng, 1)
        mode = ReferenceMode(kind=ReferenceKind.RANDOM_CLIENT)
        ref = select_reference(history, mode, [], seed=0)
        assert ref is history[-1]


class TestAlignmentSchedule:
    def test_target_picks_its_factor(self):
        ad = LoraAdapter(np.ones((3, 2)), np.zeros((2, 4)))
        assert AlignmentTarget.FACTOR_A.factor(ad) is ad.a
        assert AlignmentTarget.FACTOR_B.factor(ad) is ad.b

    def test_alternation(self):
        assert alignment_schedule(1, ScheduleAblation.ALTERNATE) is AlignmentTarget.FACTOR_A
        assert alignment_schedule(2, ScheduleAblation.ALTERNATE) is AlignmentTarget.FACTOR_B
        assert alignment_schedule(3, ScheduleAblation.ALTERNATE) is AlignmentTarget.FACTOR_A

    def test_ablations(self):
        for t in (1, 2, 5):
            assert alignment_schedule(t, ScheduleAblation.A_ONLY) is AlignmentTarget.FACTOR_A
            assert alignment_schedule(t, ScheduleAblation.B_ONLY) is AlignmentTarget.FACTOR_B
