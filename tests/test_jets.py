import math

import pytest

from hesslab import jets


def taylor_terms_sum(n: int, k: int) -> int:
    """Monomials of degree <= k in n variables, counted degree by degree."""
    return sum(math.comb(n + i - 1, i) for i in range(k + 1))


def deficit_factored_twice(n: int, k: int) -> int:
    """2 * deficit via the factored form, an exact cross-check oracle.

    2 * deficit = (n+1) * [(n-2) * T_k - 2 C(n+k, k+1) - 2 C(n+k+1, k+2)]
    where T_k counts monomials of degree <= k.  The (n-2) factor explains
    why the two-dimensional deficit can never turn positive.
    """
    t = taylor_terms_sum(n, k)
    return (n + 1) * ((n - 2) * t
                      - 2 * math.comb(n + k, k + 1)
                      - 2 * math.comb(n + k + 1, k + 2))


class TestDimensions:
    def test_taylor_terms_match_the_degree_by_degree_count(self):
        for n in range(2, 40):
            for k in range(200):
                assert jets._taylor_terms(n, k) == taylor_terms_sum(n, k)

    @pytest.mark.parametrize("n,k,expect", [(3, 0, 6), (2, 1, 9), (4, 0, 10)])
    def test_metric_jets(self, n, k, expect):
        assert jets.jet_dim_metric(n, k) == expect

    @pytest.mark.parametrize("n,k,expect", [(2, 0, 18), (3, 0, 40)])
    def test_hessian_data_jets(self, n, k, expect):
        assert jets.jet_dim_hessian_data(n, k) == expect

    def test_monotone_in_order(self):
        for n in (2, 3, 4):
            dims = [jets.jet_dim_hessian_data(n, k) for k in range(10)]
            assert dims == sorted(dims)
            dims = [jets.jet_dim_metric(n, k) for k in range(10)]
            assert dims == sorted(dims)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            jets.jet_dim_metric(1, 0)
        with pytest.raises(ValueError):
            jets.jet_dim_metric(2, -1)
        with pytest.raises(ValueError):
            jets.jet_dim_hessian_data(1, 0)


class TestCrossover:
    def test_n3_crossover_at_12(self):
        report = jets.crossover(3, 50)
        assert report.crossover == 12
        assert report.monotone_after_crossover

    def test_n3_closed_form_oracle(self):
        # for n=3 the deficit sign reduces to 3(k+1)(k+2) > 2(k+4)(k+5)
        for k, _, _, deficit in jets.crossover(3, 29).rows:
            inequality = 3 * (k + 1) * (k + 2) > 2 * (k + 4) * (k + 5)
            assert (deficit > 0) == inequality

    def test_n2_never_positive(self):
        report = jets.crossover(2, 200)
        assert report.crossover is None
        assert all(row[3] < 0 for row in report.rows)

    def test_n4_golden_crossover(self):
        assert jets.crossover(4, 50).crossover == 9

    def test_growth_exponents_near_dimension(self):
        report = jets.crossover(3, 50)
        # Taylor-coefficient counts grow like k^n; estimates must be close
        assert 2.5 < report.growth_exponent_metric < 3.5
        assert 2.5 < report.growth_exponent_hessian < 3.5

    def test_growth_exponents_past_float_range(self):
        # the jet-count ratio at n = 10**8, cap = 200 is far past float range
        report = jets.crossover(10**8, 200)
        assert math.isfinite(report.growth_exponent_metric)
        assert math.isfinite(report.growth_exponent_hessian)

    def test_cap_one_has_no_growth_exponents(self):
        report = jets.crossover(3, 1)
        assert len(report.rows) == 2
        assert report.growth_exponent_metric is None
        assert report.growth_exponent_hessian is None

    def test_report_serializes(self):
        import json
        doc = jets.crossover(3, 10).to_json()
        json.dumps(doc)
        assert "formula_note" in doc


class TestFactoredDeficit:
    def test_exact_identity_all_n_and_k(self):
        for n in range(2, 9):
            for k, _, _, deficit in jets.crossover(n, 30).rows:
                assert 2 * deficit == deficit_factored_twice(n, k)

    def test_two_dimensional_factor_vanishes(self):
        # the (n-2) factor in the factored form explains n=2: the remaining
        # terms are strictly negative binomials
        for k in range(20):
            assert deficit_factored_twice(2, k) < 0

    def test_big_integer_regime(self):
        # binomials far beyond 64-bit range must stay exact
        val = jets.jet_dim_metric(8, 2000)
        assert val > 2 ** 63
        dh = jets.jet_dim_hessian_data(8, 2000)
        assert 2 * (val - dh) == deficit_factored_twice(8, 2000)
