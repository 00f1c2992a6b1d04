import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdriftlab.hamiltonian import (
    Hamiltonian,
    HamiltonianError,
    HamiltonianParseError,
    WeightProfile,
    parse_hamiltonian,
)


class TestParse:
    def test_basic_aggregates(self):
        h = parse_hamiltonian("1.0 ZZ\n0.5 XI")
        assert h.L == 2
        assert h.lam == 1.5
        assert h.lam_max == 1.0
        assert h.n_qubits == 2

    def test_negative_coefficient_absorbed_into_sign(self):
        h = parse_hamiltonian("-0.5 XI")
        assert h.words == ("XI",)
        assert h.coefficients.tolist() == [-0.5]
        assert h.weights.tolist() == [0.5]

    def test_duplicates_merge_by_linearity(self):
        h = parse_hamiltonian("0.25 ZZ\n0.25 ZZ")
        assert h.words == ("ZZ",)
        assert h.coefficients.tolist() == [0.5]

    def test_signed_merge_can_flip_and_cancel(self):
        h = parse_hamiltonian("0.5 ZZ\n-0.75 ZZ\n0.1 XI")
        zz = h.words.index("ZZ")
        assert h.weights[zz] == 0.25
        assert h.coefficients[zz] == -0.25
        h2 = parse_hamiltonian("0.5 ZZ\n-0.5 ZZ\n0.1 XI")
        assert h2.words == ("XI",)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1.0 ZZ  # inline note\n\n0.5 XI\n"
        h = parse_hamiltonian(text)
        assert h.L == 2

    def test_malformed_coefficient_reports_line(self):
        with pytest.raises(HamiltonianParseError, match="line 2"):
            parse_hamiltonian("1.0 ZZ\nx.y XI")

    def test_inconsistent_word_length(self):
        with pytest.raises(HamiltonianParseError, match="length"):
            parse_hamiltonian("1.0 ZZ\n0.5 XIZ")

    def test_characters_outside_alphabet(self):
        with pytest.raises(HamiltonianParseError, match="outside"):
            parse_hamiltonian("1.0 ZA")

    def test_empty_document(self):
        with pytest.raises(HamiltonianParseError, match="no Hamiltonian terms"):
            parse_hamiltonian("# only comments\n\n")

    def test_all_identity_rejected(self):
        with pytest.raises(HamiltonianParseError, match="identity"):
            parse_hamiltonian("1.0 II")

    def test_l1_norm_overflow_is_a_parse_error(self):
        with pytest.raises(HamiltonianParseError, match="l1 norm") as info:
            parse_hamiltonian("1e308 ZZ\n1e308 XX")
        assert info.value.line_no is None

    def test_merged_weight_overflow_is_a_parse_error(self):
        with pytest.raises(HamiltonianParseError, match="finite and > 0, got inf"):
            parse_hamiltonian("1e308 ZZ\n1e308 ZZ")

    def test_all_terms_cancelling_is_empty(self):
        with pytest.raises(HamiltonianParseError, match="no terms"):
            parse_hamiltonian("0.5 ZZ\n-0.5 ZZ")


class TestAggregates:
    def test_recomputation_is_bit_exact(self):
        h = parse_hamiltonian("0.1 ZZ\n0.1 XI\n0.1 IY\n0.30000000000000004 YY")
        assert h.lam == math.fsum(h.weights.tolist())
        assert h.lam_max == max(h.weights.tolist())
        assert h.L == len(h.words) == len(h.coefficients) == len(h.weights)

    def test_ordering_invariant_chain(self):
        h = parse_hamiltonian("0.1 ZZ\n0.1 XI\n0.1 IY")
        assert h.lam_max <= h.lam <= h.lam_max * h.L * (1 + 1e-12)

    def test_profile_matches(self):
        h = parse_hamiltonian("1.0 ZZ\n0.5 XI")
        p = h.profile()
        assert (p.L, p.lam, p.lam_max) == (2, 1.5, 1.0)

    def test_l1_norm_overflow_raises_domain_error(self):
        with pytest.raises(HamiltonianError, match="l1 norm lam of the 2 term weights overflows"):
            Hamiltonian([(1e308, "ZZ"), (-1e308, "XX")])
        h = Hamiltonian([(1e308, "ZZ"), (7e307, "XX")])
        assert h.lam == 1.7e308

    def test_weight_profile_rejects_inconsistent(self):
        with pytest.raises(HamiltonianError):
            WeightProfile(L=2, lam=0.5, lam_max=1.0)
        with pytest.raises(HamiltonianError):
            WeightProfile(L=2, lam=3.0, lam_max=1.0)

    @pytest.mark.parametrize(
        "lam, lam_max, message",
        [
            (math.inf, math.inf, "lam must be finite and > 0, got inf"),
            (1.0, math.inf, "lam_max must be finite and > 0, got inf"),
            (math.nan, 1.0, "lam must be finite and > 0, got nan"),
            (0.0, 1.0, "lam must be finite and > 0, got 0.0"),
            (1.0, -1.0, "lam_max must be finite and > 0, got -1.0"),
        ],
    )
    def test_weight_profile_rejects_non_finite_or_non_positive(self, lam, lam_max, message):
        with pytest.raises(HamiltonianError) as info:
            WeightProfile(1, lam, lam_max)
        assert str(info.value) == message


class TestSerialize:
    def test_canonical_order_descending_weight_then_word(self):
        h = parse_hamiltonian("0.5 XI\n0.5 IY\n1.0 ZZ")
        lines = h.serialize().splitlines()
        assert lines[0] == "# hamtxt v1"
        assert [ln.split()[1] for ln in lines[1:]] == ["ZZ", "IY", "XI"]

    def test_round_trip_examples(self):
        for text in ("1.0 ZZ\n0.5 XI", "-0.5 XI", "0.25 ZZ\n0.25 ZZ\n-0.125 XY"):
            h = parse_hamiltonian(text)
            assert parse_hamiltonian(h.serialize()) == h.canonical()

    def test_numpy_and_int_coefficients_serialize_as_floats(self):
        h = Hamiltonian([(np.float64(0.5), "ZZ"), (np.float32(-0.25), "XI"), (1, "IY")])
        assert h.serialize() == "# hamtxt v1\n1.0 IY\n0.5 ZZ\n-0.25 XI\n"
        assert parse_hamiltonian(h.serialize()) == h.canonical()

    @given(
        st.dictionaries(
            st.text(alphabet="IXYZ", min_size=2, max_size=2).filter(lambda w: set(w) != {"I"}),
            st.tuples(st.booleans(), st.floats(min_value=1e-6, max_value=1e3)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, table):
        entries = [((w if sign else -w), word) for word, (sign, w) in table.items()]
        h = Hamiltonian(entries)
        assert parse_hamiltonian(h.serialize()) == h.canonical()
        assert h.lam == math.fsum(h.weights.tolist())


class TestTruncate:
    def test_greedy_removal_within_budget(self):
        h = Hamiltonian([(0.5, "ZZ"), (0.3, "XI"), (0.001, "IY"), (0.0005, "YY")])
        out = h.truncate(0.002)
        # greedy smallest-first: 0.0005 then 0.001 fit (0.0015 <= 0.002)
        assert sorted(out.weights) == [0.3, 0.5]

    def test_budget_below_smallest_weight_is_identity(self):
        h = Hamiltonian([(0.5, "ZZ"), (0.3, "XI")])
        out = h.truncate(0.01)
        assert out == h

    def test_tie_break_keeps_earlier_terms(self):
        h = Hamiltonian([(0.1, "ZZ"), (0.1, "XI"), (0.1, "IY")])
        out = h.truncate(0.1)
        # exactly one removal fits; the latest input term goes first
        assert out.words == ("ZZ", "XI")

    def test_budget_at_least_lam_rejected(self):
        h = Hamiltonian([(0.5, "ZZ"), (0.3, "XI")])
        with pytest.raises(HamiltonianError, match="every term"):
            h.truncate(0.8)

    def test_removed_weight_bounded(self):
        h = Hamiltonian([(0.4, "ZZ"), (0.25, "XI"), (0.2, "IY"), (0.05, "YY"), (0.03, "XX")])
        for eps in (0.01, 0.05, 0.1, 0.3, 0.6):
            out = h.truncate(eps)
            assert out.lam >= h.lam - eps - 1e-15

    def test_nonpositive_budget_rejected(self):
        h = Hamiltonian([(0.5, "ZZ")])
        with pytest.raises(HamiltonianError):
            h.truncate(0.0)
