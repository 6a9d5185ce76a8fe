import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import blocks as bl
from chaoslab.errors import (
    GuardExceeded,
    MembershipError,
    SchemeError,
    UsageError,
    ValidationError,
)
from oracles import (
    central_block_label,
    encode_block_recursive,
    enumerate_family_recursive,
    free_classes_recursive,
    project_position_recursive,
    same_label_mask,
)


def encode_by_strings(q, k, bits):
    """Independent reference encoder built on string concatenation."""
    if k == 1:
        word = "".join(str(int(b)) for b in bits)
        return word + word
    p_prev = 1
    for x in q[: k - 1]:
        p_prev *= x
    parts = [
        encode_by_strings(q, k - 1, bits[i * p_prev : (i + 1) * p_prev])
        for i in range(q[k - 1])
    ]
    half = "".join(parts)
    return half + half


class TestParameters:
    def test_q33_lengths(self):
        table = c.derive_params(c.QSchedule((3, 3)))
        assert [(p.k, p.n_k) for p in table] == [(1, 6), (2, 36)]

    def test_two_two_table(self):
        table = c.derive_params(c.QSchedule((2, 2)))
        assert [(p.p_k, p.n_k, p.b_length, p.family_size) for p in table] == [
            (2, 4, 2, 4),
            (4, 16, 8, 16),
        ]

    def test_depth_three(self):
        q = c.QSchedule((2, 2, 2))
        assert q.p(3) == 8 and q.n(3) == 64 and q.family_size(3) == 256
        assert q.b_length(3) == 32

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            c.QSchedule((1, 2))
        with pytest.raises(ValidationError):
            c.QSchedule(())

    def test_window_budget_guard(self):
        with pytest.raises(GuardExceeded):
            c.derive_params(c.QSchedule((2,) * 16), window_budget=1 << 20)

    def test_monotone_parameters(self):
        q = c.QSchedule((3, 2, 4))
        ns = [q.n(k) for k in (1, 2, 3)]
        ps = [q.p(k) for k in (1, 2, 3)]
        assert ns == sorted(ns) and ps == sorted(ps)
        assert all(b % a == 0 for a, b in zip(ns, ns[1:]))


class TestEncode:
    def test_level_one(self):
        q = c.QSchedule((2, 2))
        assert "".join(map(str, c.encode_block(q, 1, [0, 1]))) == "0101"

    def test_level_two_by_hand(self):
        q = c.QSchedule((2, 2))
        assert (
            "".join(map(str, c.encode_block(q, 2, [0, 1, 1, 1])))
            == "0101111101011111"
        )

    def test_level_one_q3(self):
        q = c.QSchedule((3, 3))
        assert "".join(map(str, c.encode_block(q, 1, [0, 1, 0]))) == "010010"

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            c.encode_block(c.QSchedule((2, 2)), 2, [0, 1])

    @given(st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_matches_string_reference(self, value):
        q = (2, 2, 2)
        bits = [(value >> (7 - i)) & 1 for i in range(8)]
        ours = "".join(map(str, c.encode_block(c.QSchedule(q), 3, bits)))
        assert ours == encode_by_strings(q, 3, bits)

    def test_repetition_soundness(self):
        q = c.QSchedule((2, 3))
        for value in range(2 ** q.p(2)):
            bits = [(value >> (q.p(2) - 1 - i)) & 1 for i in range(q.p(2))]
            row = c.encode_block(q, 2, bits)
            half = q.b_length(2)
            assert np.array_equal(row[:half], row[half:])


class TestFreeLayout:
    def test_level_one_copies(self):
        layout = c.free_positions(c.QSchedule((2, 2)), 1)
        assert layout.free == (0, 1)
        assert layout.copies == {0: (2,), 1: (3,)}

    def test_level_two_classes(self):
        layout = c.free_positions(c.QSchedule((2, 2)), 2)
        assert layout.free == (0, 1, 4, 5)
        assert set(layout.copies[0]) == {2, 8, 10}
        for cls in layout.classes():
            assert len(cls) == 4  # 2^k

    def test_classes_partition_everything(self):
        q = c.QSchedule((2, 3, 2))
        for k in (1, 2, 3):
            layout = c.free_positions(q, k)
            classes = layout.classes()
            assert len(classes) == q.p(k)
            assert all(len(cls) == 2**k for cls in classes)
            flat = sorted(pos for cls in classes for pos in cls)
            assert flat == list(range(q.n(k)))

    def test_deep_class_matches_hand_recursion(self):
        layout = c.free_positions(c.QSchedule((2, 2, 2)), 3)
        assert layout.free == (0, 1, 4, 5, 16, 17, 20, 21)
        assert sorted((17,) + layout.copies[17]) == [17, 19, 25, 27, 49, 51, 57, 59]

    def test_copies_carry_the_free_bit(self):
        q = c.QSchedule((2, 2, 2))
        layout = c.free_positions(q, 3)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, q.p(3))
        row = c.encode_block(q, 3, bits)
        for idx, f in enumerate(layout.free):
            for pos in layout.copies[f]:
                assert row[pos] == bits[idx]


class TestPi:
    def test_level_one(self):
        q = c.QSchedule((2, 2))
        assert c.pi(q, 1, [0, 1, 0, 1]).tolist() == [0, 1]

    def test_level_two(self):
        q = c.QSchedule((2, 2))
        row = [0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1]
        assert c.pi(q, 2, row).tolist() == [0, 1, 1, 1]

    def test_membership_enforced(self):
        q = c.QSchedule((2, 2))
        with pytest.raises(MembershipError):
            c.pi(q, 1, [0, 1, 1, 1])  # not of the form ww
        with pytest.raises(MembershipError):
            c.pi(q, 1, [0, 1, 0])  # wrong length

    def test_bijection_and_inverse_depth_three(self):
        q = c.QSchedule((2, 2, 2))
        family = c.enumerate_family(q, 3)
        assert family.shape == (256, 64)
        words = set()
        for row in family:
            w = c.pi(q, 3, row)
            words.add(w.tobytes())
            assert np.array_equal(c.inverse_pi(q, 3, w), row)
        assert len(words) == 256  # injective and onto all 8-bit words

    def test_recursion_identity(self):
        # pi_{k+1}(C) is the concatenation of pi_k over the q_{k+1} component
        # blocks of the first half of C
        q = c.QSchedule((2, 2, 2))
        for k in (1, 2):
            for row in c.enumerate_family(q, k + 1):
                half = row[: q.b_length(k + 1)]
                comps = half.reshape(q.q[k], q.n(k))
                concat = np.concatenate([c.pi(q, k, comp) for comp in comps])
                assert np.array_equal(c.pi(q, k + 1, row), concat)

    def test_roundtrip_all_words_small_levels(self):
        q = c.QSchedule((2, 2, 2))
        for k in (1, 2, 3):
            pk = q.p(k)
            for value in range(2**pk):
                word = [(value >> (pk - 1 - i)) & 1 for i in range(pk)]
                assert c.pi(q, k, c.encode_block(q, k, word)).tolist() == word

    def test_enumeration_guard(self):
        with pytest.raises(GuardExceeded):
            c.enumerate_family(c.QSchedule((2,) * 5), 5)  # p_5 = 32

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_schedules(self, data):
        qs = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
        q = c.QSchedule(tuple(qs))
        k = data.draw(st.integers(1, q.depth))
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=q.p(k), max_size=q.p(k))
        )
        row = c.encode_block(q, k, bits)
        assert c.pi(q, k, row).tolist() == bits
        layout = c.free_positions(q, k)
        assert list(layout.free) == sorted(layout.free)
        # percentage preservation against a second random word
        other = data.draw(
            st.lists(st.integers(0, 1), min_size=q.p(k), max_size=q.p(k))
        )
        row2 = c.encode_block(q, k, other)
        assert c.entry_disagreement(row, row2) == c.entry_disagreement(bits, other)


class TestProjectPosition:
    def test_level_one(self):
        q = c.QSchedule((2, 2))
        assert [c.project_position(q, 1, j) for j in range(4)] == [0, 1, 0, 1]

    def test_level_two_full_table(self):
        q = c.QSchedule((2, 2))
        table = [c.project_position(q, 2, j) for j in range(16)]
        assert table == [0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]

    def test_free_positions_are_fixed_points(self):
        q = c.QSchedule((2, 3, 2))
        for k in (1, 2, 3):
            layout = c.free_positions(q, k)
            for idx, f in enumerate(layout.free):
                assert c.project_position(q, k, f) == idx

    def test_constant_on_repetition_classes(self):
        q = c.QSchedule((3, 2))
        layout = c.free_positions(q, 2)
        for idx, f in enumerate(layout.free):
            for pos in layout.copies[f]:
                assert c.project_position(q, 2, pos) == idx

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            c.project_position(c.QSchedule((2, 2)), 2, 16)


SCHEDULES = [(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)]


class TestSourceIndex:
    """The cached source index and every gather through it, against the
    block recursion run row by row."""

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_src_is_the_recursion_on_bit_indices(self, q):
        schedule = c.QSchedule(q)
        for k in range(1, schedule.depth + 1):
            src, free = bl._source_index(schedule, k)
            assert src.tolist() == encode_block_recursive(q, k, np.arange(schedule.p(k))).tolist()
            assert not src.flags.writeable and not free.flags.writeable
            assert bl._source_index(schedule, k)[0] is src  # built once

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_free_layout_and_projection(self, q):
        schedule = c.QSchedule(q)
        for k in range(1, schedule.depth + 1):
            classes = free_classes_recursive(q, k)
            layout = c.free_positions(schedule, k)
            assert layout.free == tuple(cls[0] for cls in classes)
            assert layout.copies == {cls[0]: tuple(sorted(cls[1:])) for cls in classes}
            assert bl._source_index(schedule, k)[1].tolist() == list(layout.free)
            projected = [c.project_position(schedule, k, j) for j in range(schedule.n(k))]
            assert projected == [
                project_position_recursive(q, k, j) for j in range(schedule.n(k))
            ]

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_family_encode_and_pi(self, q):
        schedule = c.QSchedule(q)
        rng = np.random.default_rng(11)
        for k in range(1, schedule.depth + 1):
            family = c.enumerate_family(schedule, k)
            pk = schedule.p(k)
            assert family.dtype == np.int8 and family.shape == (2**pk, schedule.n(k))
            if pk <= 12:
                assert np.array_equal(family, enumerate_family_recursive(q, k))
                picks = range(2**pk)
            else:
                picks = rng.integers(0, 2**pk, 200)
            for v in picks:
                word = [(int(v) >> (pk - 1 - i)) & 1 for i in range(pk)]
                expected = encode_block_recursive(q, k, word)
                assert np.array_equal(family[v], expected)
                assert np.array_equal(c.encode_block(schedule, k, word), expected)
                assert c.pi(schedule, k, expected).tolist() == word

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_pi_rejects_every_single_bit_flip(self, q):
        schedule = c.QSchedule(q)
        k = schedule.depth
        row = c.encode_block(schedule, k, np.random.default_rng(5).integers(0, 2, schedule.p(k)))
        for j in range(row.size):
            flipped = row.copy()
            flipped[j] ^= 1
            assert not bl.is_member(schedule, k, flipped)

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_stacks_match_per_row_calls(self, q):
        schedule = c.QSchedule(q)
        rng = np.random.default_rng(3)
        for k in range(1, schedule.depth + 1):
            words = rng.integers(0, 2, (2, 3, schedule.p(k)))
            blocks = c.encode_block(schedule, k, words)
            assert blocks.shape == (2, 3, schedule.n(k)) and blocks.dtype == np.int8
            decoded = c.pi(schedule, k, blocks)
            for index in np.ndindex(2, 3):
                assert np.array_equal(blocks[index], c.encode_block(schedule, k, words[index]))
                assert np.array_equal(decoded[index], words[index])
                assert np.array_equal(c.pi(schedule, k, blocks[index]), words[index])

    @pytest.mark.parametrize("q", SCHEDULES)
    def test_stack_errors_name_the_first_bad_row(self, q):
        schedule = c.QSchedule(q)
        k = schedule.depth
        words = np.random.default_rng(4).integers(0, 2, (5, schedule.p(k)))
        blocks = c.encode_block(schedule, k, words)
        blocks[3, 0] ^= 1  # every bit has more than one copy: no longer a member
        blocks[4, 0] ^= 1
        with pytest.raises(MembershipError, match=rf"^row 3: block is not a member of C_{k}$"):
            c.pi(schedule, k, blocks)
        with pytest.raises(MembershipError, match=rf"^block is not a member of C_{k}$"):
            c.pi(schedule, k, blocks[3])
        for i in (0, 1, 2):
            c.pi(schedule, k, blocks[i])
        assert not bl.is_member(schedule, k, blocks)
        blocks[1, 0] = 2
        with pytest.raises(MembershipError, match="^row 1: block is not a binary row$"):
            c.pi(schedule, k, blocks)
        words[2, 1] = 2
        with pytest.raises(ValidationError, match="^row 2: free bits must be 0/1$"):
            c.encode_block(schedule, k, words)
        with pytest.raises(ValidationError, match="^free bits must be 0/1$"):
            c.encode_block(schedule, k, words[2])
        word = bl.word_from_free_words(schedule, words[:2])
        word.binary[schedule.n(k) + 1] ^= 1
        with pytest.raises(MembershipError, match="^row 1: "):
            word.validate()

    @pytest.mark.parametrize("seed", [1, 7, 12345])
    @pytest.mark.parametrize("blocks", [1, 3, 10418])
    def test_sample_point_draws_the_per_block_stream(self, seed, blocks):
        schedule = c.QSchedule((2, 3, 2))
        word = c.sample_point(schedule, seed, blocks=blocks)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        assert word.offset == int(rng.integers(0, schedule.n(3)))
        rows = [encode_block_recursive(schedule.q, 3, rng.integers(0, 2, 12)) for _ in range(blocks)]
        assert np.array_equal(word.binary, np.concatenate(rows))
        assert word.binary.dtype == np.int8

    def test_word_from_free_words(self):
        q = (3, 2, 2)
        schedule = c.QSchedule(q)
        free = np.random.default_rng(2).integers(0, 2, (5, schedule.p(3)))
        word = bl.word_from_free_words(schedule, free, offset=4)
        rows = [encode_block_recursive(q, 3, w) for w in free]
        assert np.array_equal(word.binary, np.concatenate(rows))
        assert word.offset == 4
        word.validate()
        with pytest.raises(ValidationError):
            bl.word_from_free_words(schedule, free * 2)


class TestBitInput:
    """Bit input is checked before its int8 cast: nothing is truncated or
    wrapped into a bit."""

    def test_fractional_free_bits_rejected(self):
        with pytest.raises(ValidationError, match="^bits must be integers$"):
            c.encode_block(c.QSchedule((2, 2)), 1, [0.9, 1])

    def test_fractional_block_rejected(self):
        with pytest.raises(ValidationError, match="^bits must be integers$"):
            c.pi(c.QSchedule((2, 2)), 1, [0.5, 1, 0.2, 1])

    def test_out_of_range_free_bits_rejected(self):
        with pytest.raises(ValidationError, match="^free bits must be 0/1$"):
            c.encode_block(c.QSchedule((2, 2)), 1, [256, 1])
        with pytest.raises(MembershipError, match="^block is not a binary row$"):
            c.pi(c.QSchedule((2, 2)), 1, [256, 1, 256, 1])

    def test_every_bit_input_goes_through_the_check(self):
        q = c.QSchedule((2, 2))
        with pytest.raises(ValidationError, match="^row 1: bits must be integers$"):
            bl.word_from_free_words(q, [[0, 1, 1, 0], [0.5, 1, 1, 0]])
        with pytest.raises(ValidationError):
            c.TwoRowWord(q, 0, np.full(16, 0.5))
        with pytest.raises(ValidationError):
            c.TwoRowWord(q, 0, np.full(16, 257))
        with pytest.raises(ValidationError):
            c.blocks.entry_disagreement([0, 1.5], [0, 1])
        with pytest.raises(ValidationError):
            c.blocks.image_component_disagreement(q, [0, 1, 1, 1], ["0", "1", "0", "0"], 1)
        with pytest.raises(ValidationError):
            c.disagreement_fraction(q, np.full(16, 0.5), np.zeros(16), 1)
        # integral floats and bools are bits
        assert c.encode_block(q, 1, [1.0, 0.0]).tolist() == [1, 0, 1, 0]
        assert c.encode_block(q, 1, np.array([True, False])).tolist() == [1, 0, 1, 0]


class TestMarkerRow:
    def test_base_example(self):
        row = c.marker_row(c.QSchedule((2, 2)), 0, 8)
        assert row.tolist() == [2, 0, 0, 0, 1, 0, 0, 0]

    def test_periodicity_counts(self):
        q = c.QSchedule((2, 2, 2))
        row = c.marker_row(q, 0)
        for k in (1, 2, 3):
            assert int(np.count_nonzero(row >= k)) == q.n(3) // q.n(k)

    def test_q33_pattern(self):
        q = c.QSchedule((3, 3))
        row = c.marker_row(q, 0)
        ones = np.flatnonzero(row >= 1)
        assert np.array_equal(ones, np.arange(0, 36, 6))
        assert int(np.count_nonzero(row == 2)) == 1

    def test_offset_shifts_phase(self):
        q = c.QSchedule((2, 2))
        row = c.marker_row(q, 3, 8)
        assert row.tolist() == [0, 0, 0, 2, 0, 0, 0, 1]

    def test_no_infinite_symbol(self):
        q = c.QSchedule((2, 2, 2))
        assert c.marker_row(q, 0).max() == q.depth


class TestSampling:
    def test_determinism(self):
        q = c.QSchedule((2, 2))
        w1 = c.sample_point(q, seed=5)
        w2 = c.sample_point(q, seed=5)
        assert w1.offset == w2.offset
        assert np.array_equal(w1.binary, w2.binary)

    def test_atom_uniformity_chi_square(self):
        # 256 equiprobable (offset, free-word) atoms for q=(2,2); the 1%
        # critical value of chi2 with 255 dof is 310.457 (precomputed)
        q = c.QSchedule((2, 2))
        children = np.random.SeedSequence(20240808).spawn(100000)
        atoms = np.empty(100000, dtype=np.int64)
        for i, child in enumerate(children):
            rng = np.random.default_rng(child)
            offset = int(rng.integers(0, 16))
            bits = rng.integers(0, 2, 4)
            atoms[i] = offset * 16 + int(bits @ np.array([8, 4, 2, 1]))
        observed = np.bincount(atoms, minlength=256)
        expected = 100000 / 256
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < 310.457

    def test_budget_guard(self):
        with pytest.raises(GuardExceeded):
            c.sample_point(c.QSchedule((2,) * 12), seed=0, window_budget=1 << 16)

    def test_word_validate(self):
        q = c.QSchedule((2, 2))
        w = c.sample_point(q, seed=1)
        w.validate()
        bad = c.TwoRowWord(q, 0, np.array([0, 1, 1, 1] * 4, dtype=np.int8))
        with pytest.raises(MembershipError):
            bad.validate()

    def test_symbol_track_cap(self):
        q = c.QSchedule((2, 2))
        w = c.sample_point(q, seed=2, offset=10)
        assert w.available_horizon == 6
        with pytest.raises(UsageError):
            w.symbol_track(7)

    def test_offset_chain_congruence(self):
        q = c.QSchedule((2, 3, 2))
        for seed in range(20):
            w = c.sample_point(q, seed=seed)
            chain = w.offset_chain
            assert all(0 <= o < q.n(k) for k, o in enumerate(chain, start=1))
            for k in range(len(chain) - 1):
                assert chain[k + 1] % q.n(k + 1) == chain[k]


class TestFiberPair:
    def test_markers_shared_bits_independent(self):
        q = c.QSchedule((2, 2, 2))
        pair = bl.fiber_pair(q, (21, 22), offset=0)
        wa, wb = pair.a.source, pair.b.source
        assert wa.offset == wb.offset
        assert np.array_equal(wa.markers, wb.markers)
        assert not np.array_equal(wa.binary, wb.binary)

    def test_equal_seeds_refused(self):
        with pytest.raises(UsageError):
            bl.fiber_pair(c.QSchedule((2, 2)), (5, 5))

    def test_disagreement_fraction_near_half(self):
        # free bits disagree with probability 1/2 and forced repetitions copy
        # disagreements verbatim, so the whole-row fraction is ~1/2 too
        q = c.QSchedule((2, 2, 2))
        fractions = []
        for trial in range(200):
            pair = bl.fiber_pair(q, (1000 + 2 * trial, 1001 + 2 * trial), offset=0)
            wa, wb = pair.a.source, pair.b.source
            fractions.append(float(bl.entry_disagreement(wa.binary, wb.binary)))
            layout = c.free_positions(q, 3)
            free_frac = np.mean(wa.binary[list(layout.free)] != wb.binary[list(layout.free)])
            assert abs(free_frac - fractions[-1]) < 1e-12  # repetitions copy exactly
        assert abs(np.mean(fractions) - 0.5) < 0.05


class TestPercentages:
    def test_equal_blocks_zero(self):
        q = c.QSchedule((2, 2))
        row = c.encode_block(q, 2, [0, 1, 1, 1])
        assert c.disagreement_fraction(q, row, row, 1) == 0

    def test_hand_example(self):
        q = c.QSchedule((2, 2))
        a = c.encode_block(q, 2, [0, 1, 1, 1])
        b = c.encode_block(q, 2, [0, 1, 0, 0])
        assert c.disagreement_fraction(q, a, b, 1) == Fraction(1, 2)
        img = c.blocks.image_component_disagreement
        assert img(q, [0, 1, 1, 1], [0, 1, 0, 0], 1) == Fraction(1, 2)

    def test_membership_required(self):
        q = c.QSchedule((2, 2))
        with pytest.raises(MembershipError):
            c.disagreement_fraction(q, np.zeros(16, np.int8), np.ones(16, np.int8) * 2, 1)

    def test_exhaustive_preservation_two_levels(self):
        # every ordered pair of depth-2 members: entry and component
        # percentages survive the coding bijection exactly
        q = c.QSchedule((2, 2))
        family = c.enumerate_family(q, 2)
        words = np.array([c.pi(q, 2, row) for row in family])
        for i in range(len(family)):
            for j in range(len(family)):
                assert c.entry_disagreement(family[i], family[j]) == c.entry_disagreement(
                    words[i], words[j]
                )
                assert c.disagreement_fraction(
                    q, family[i], family[j], 1
                ) == c.blocks.image_component_disagreement(q, words[i], words[j], 1)

    @pytest.mark.parametrize("length", [1, 2, 3, 6])
    def test_differing_components_per_row(self, length):
        rng = np.random.default_rng(length)
        a = rng.integers(0, 2, (4, 5, 12)).astype(np.int8)
        b = a.copy()
        b[rng.random(b.shape) < 0.1] ^= 1
        counts = bl.differing_components(a, b, length)
        assert counts.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            parts = zip(a[idx].reshape(-1, length), b[idx].reshape(-1, length))
            assert counts[idx] == sum(not np.array_equal(x, y) for x, y in parts)
        assert bl.differing_components(a[0, 0], b[0, 0], length) == counts[0, 0]

    def test_differing_components_checks_shapes(self):
        with pytest.raises(ValidationError, match="equal shape"):
            bl.differing_components(np.zeros((2, 4)), np.zeros((1, 4)), 2)
        with pytest.raises(ValidationError, match="multiple of 3"):
            bl.differing_components(np.zeros(4), np.zeros(4), 3)


class TestEntropySignature:
    def test_exact_powers(self):
        q = c.QSchedule((2,) * 6)
        report = c.block_count_entropy(
            (q.family_size(k), q.n(k)) for k in range(1, 7)
        )
        assert list(report.rates) == [Fraction(1, 2**k) for k in range(1, 7)]


class TestCentralScheme:
    def test_same_fiber_equal_blocks_share_labels(self):
        q = c.QSchedule((2, 2, 2))
        bits = np.random.default_rng(0).integers(0, 2, 8)
        w1 = bl.word_from_free_words(q, bits.reshape(1, 8), offset=3)
        w2 = bl.word_from_free_words(q, bits.reshape(1, 8), offset=3)
        pair = c.OrbitPair(
            bl.trajectory_from_word(w1), bl.trajectory_from_word(w2)
        )
        scheme = c.central_block_scheme(q)
        for k in (1, 2, 3):
            assert np.count_nonzero(c.same_atom_series(pair, scheme, k)) == pair.horizon

    def test_different_offsets_disjoint_at_level_one(self):
        q = c.QSchedule((2, 2, 2))
        rng = np.random.default_rng(1)
        w1 = bl.word_from_free_words(q, rng.integers(0, 2, 8).reshape(1, 8), offset=0)
        w2 = bl.word_from_free_words(q, rng.integers(0, 2, 8).reshape(1, 8), offset=1)
        horizon = min(w1.available_horizon, w2.available_horizon)
        pair = c.OrbitPair(
            bl.trajectory_from_word(w1, horizon),
            bl.trajectory_from_word(w2, horizon),
        )
        scheme = c.central_block_scheme(q)
        assert np.count_nonzero(c.same_atom_series(pair, scheme, 1)) == 0

    def test_label_count_within_achievable_bound(self):
        q = c.QSchedule((2, 2))
        label = central_block_label(q)
        labels = set()
        for seed in range(60):
            w = c.sample_point(q, seed=seed)
            traj = bl.trajectory_from_word(w)
            for n in range(traj.horizon):
                labels.add(label(1, traj, n))
        assert len(labels) <= q.n(1) * q.family_size(1)

    def test_fast_mask_matches_label_loop(self):
        q = c.QSchedule((2, 2, 2))
        scheme = c.central_block_scheme(q)
        for seeds in ((31, 32), (33, 34)):
            pair = bl.fiber_pair(q, seeds)
            for k in (1, 2, 3):
                fast = scheme.same_atom_mask(pair, k)
                slow = same_label_mask(central_block_label(q), pair, k)
                assert np.array_equal(fast, slow)

    def test_fast_mask_with_congruent_but_distinct_offsets(self):
        # offsets 0 and 4 agree mod N_1 = 4 but index different level-1
        # blocks; the mask must compare contents, not block indices
        q = c.QSchedule((2, 2, 2))
        rng = np.random.default_rng(77)
        wa = bl.word_from_free_words(q, rng.integers(0, 2, (2, 8)), offset=0)
        wb = bl.word_from_free_words(q, rng.integers(0, 2, (2, 8)), offset=4)
        horizon = min(wa.available_horizon, wb.available_horizon)
        pair = c.OrbitPair(
            bl.trajectory_from_word(wa, horizon),
            bl.trajectory_from_word(wb, horizon),
        )
        scheme = c.central_block_scheme(q)
        for k in (1, 2, 3):
            fast = scheme.same_atom_mask(pair, k)
            slow = same_label_mask(central_block_label(q), pair, k)
            assert np.array_equal(fast, slow)

    def test_fast_mask_randomized_parity_sweep(self):
        rng = np.random.default_rng(123)
        for schedule_q in ((2, 2), (2, 3), (3, 2), (2, 2, 2)):
            q = c.QSchedule(schedule_q)
            scheme = c.central_block_scheme(q)
            top = q.n(q.depth)
            for _ in range(8):
                blocks = int(rng.integers(1, 4))
                oa = int(rng.integers(0, top))
                ob = int(rng.integers(0, top))
                wa = bl.word_from_free_words(
                    q, rng.integers(0, 2, (blocks, q.p(q.depth))), offset=oa
                )
                wb = bl.word_from_free_words(
                    q, rng.integers(0, 2, (blocks, q.p(q.depth))), offset=ob
                )
                horizon = min(wa.available_horizon, wb.available_horizon)
                pair = c.OrbitPair(
                    bl.trajectory_from_word(wa, horizon),
                    bl.trajectory_from_word(wb, horizon),
                )
                for k in range(1, q.depth + 1):
                    fast = scheme.same_atom_mask(pair, k)
                    slow = same_label_mask(central_block_label(q), pair, k)
                    assert np.array_equal(fast, slow), (schedule_q, k, oa, ob)

    def test_mask_checks_its_inputs(self):
        q = c.QSchedule((2, 2, 2))
        scheme = c.central_block_scheme(q)
        word = bl.word_from_free_words(q, np.zeros((1, 8)), offset=60)
        plain = c.Trajectory(c.ZeroEntropy(q), 4, None, symbols=np.zeros(4, dtype=np.int64))
        traj = bl.trajectory_from_word(word)
        with pytest.raises(SchemeError, match="TwoRowWord"):
            scheme.same_atom_mask(c.OrbitPair(traj, plain), 1)
        # the word holds times 0..3; a longer trajectory runs past its window
        long = c.Trajectory(c.ZeroEntropy(q), 5, None, symbols=np.zeros(5, dtype=np.int64),
                            source=word)
        with pytest.raises(SchemeError, match="time 4 outside the word's window"):
            scheme.same_atom_mask(c.OrbitPair(long, long), 1)

    def test_refinement_and_shift_window(self):
        q = c.QSchedule((2, 2, 2))
        scheme = c.central_block_scheme(q)
        rng = np.random.default_rng(7)
        for trial in range(20):
            offset = int(rng.integers(0, 64))
            pair = bl.fiber_pair(q, (500 + 2 * trial, 501 + 2 * trial), offset=offset)
            masks = {k: scheme.same_atom_mask(pair, k) for k in (1, 2, 3)}
            assert not np.any(masks[2] & ~masks[1])
            assert not np.any(masks[3] & ~masks[2])
            for k in (1, 2, 3):
                pos = offset + np.arange(pair.horizon)
                for w in np.unique(pos // q.n(k)):
                    segment = masks[k][pos // q.n(k) == w]
                    assert segment.all() or not segment.any()
