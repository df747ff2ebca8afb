import csv
import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from qsat import diagnostics as D
from qsat.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    clamp_variance_study,
    collect_records,
    etr_check,
    kappa0,
    kappa1,
    kappa2,
    quant_variance_study,
    records_to_csv,
    records_to_json,
)
from qsat.network import build_preset
from qsat.quant import RescaleMode
from qsat.tensor import Tensor
from qsat.training import cross_entropy


def stats(n_in=64, n_hat=64, k_pool=1.0, var_w=1.0, var_g=1.0):
    return DiagnosticsRecord(step=0, layer=0, n_in=n_in, n_hat=n_hat, k_pool=k_pool,
                             var_weight=var_w, var_grad=var_g, kappa0=None, kappa1=None,
                             kappa2=None, alpha=None, lr=None)


class TestKappa0:
    # last-layer saturation numbers for the four reference models: the
    # ratio n_L * VAR / k^2 with VAR = 1/1000 and a 7x7 global pool
    @pytest.mark.parametrize(
        "n_last,expected",
        [(512, 0.01), (2048, 0.04), (1024, 0.02), (1280, 0.026)],
        ids=["narrow", "wide", "mid", "mid-plus"],
    )
    def test_reference_values(self, n_last, expected):
        value = kappa0(1.0 / 1000.0, n_last, 7.0)
        assert value == pytest.approx(expected, rel=0.15)

    def test_unit_ratio(self):
        assert kappa0(1.0, 49, 7.0) == pytest.approx(1.0)

    def test_positivity_checked(self):
        with pytest.raises(ValueError):
            kappa0(0.0, 10, 7.0)

    def test_scale_covariance(self):
        base = kappa0(2e-3, 512, 7.0)
        assert kappa0(3 * 2e-3, 512, 7.0) == pytest.approx(3 * base)


class TestKappa1:
    def test_identical_layers_give_one(self):
        assert kappa1(stats(), stats()) == pytest.approx(1.0)

    def test_weight_variance_scaling(self):
        base = kappa1(stats(), stats())
        doubled = kappa1(stats(var_w=2.0), stats())
        assert doubled == pytest.approx(2 * base)

    def test_pool_factor(self):
        assert kappa1(stats(k_pool=2.0), stats()) == pytest.approx(4.0)

    def test_dead_layer_is_nan_not_crash(self):
        assert math.isnan(kappa1(stats(var_g=0.0), stats()))

    def test_pure_function(self):
        a, b = stats(n_in=27, var_w=0.3, var_g=1e-4), stats(n_hat=96, var_w=0.01, var_g=2e-4)
        assert kappa1(a, b) == kappa1(a, b)


class TestKappa2:
    def test_unit_case(self):
        # fan-out times weight variance of the upper layer equal to one
        assert kappa2(stats(), stats(n_hat=100, var_w=0.01)) == pytest.approx(1.0)

    def test_inverse_scaling_in_upper_weight_variance(self):
        base = kappa2(stats(), stats(var_w=1.0))
        assert kappa2(stats(), stats(var_w=4.0)) == pytest.approx(base / 4.0)

    def test_pool_enters_at_fourth_power(self):
        assert kappa2(stats(k_pool=2.0), stats(n_hat=1, var_w=1.0)) == pytest.approx(16.0)

    def test_no_bn_two_layer_net_at_matched_init_is_order_one(self):
        # two dense layers, no normalization, fan-out-matched init: the law
        # predicts an O(1) constant across seeds
        from qsat.network import DenseLayer
        from qsat.tensor import matmul, relu

        values = []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            l1 = DenseLayer("l1", 64, 64, rng=np.random.default_rng(seed + 100))
            l2 = DenseLayer("l2", 64, 10, rng=np.random.default_rng(seed + 200))
            x = Tensor(rng.normal(size=(128, 64)).astype(np.float32))
            labels = rng.integers(0, 10, size=128)
            h = relu(matmul(x, l1.effective()))
            loss = cross_entropy(matmul(h, l2.effective()), labels)
            loss.backward()
            s1 = stats(n_in=64, n_hat=64, var_w=D.mean_square_value(l1.w.data),
                       var_g=D.mean_square_value(l1.w.grad))
            s2 = stats(n_in=64, n_hat=10, var_w=D.mean_square_value(l2.w.data),
                       var_g=D.mean_square_value(l2.w.grad))
            values.append(kappa2(s1, s2))
        assert 0.2 <= np.median(values) <= 5.0


class TestCollect:
    def make_model_with_grads(self, preset="convnet-bn", **kw):
        model = build_preset(preset, weight_bits="fp",
                             rescale=RescaleMode.CONSTANT, seed=17, **kw)
        rng = np.random.default_rng(18)
        x = Tensor(rng.integers(0, 256, (8, 3, 32, 32)).astype(np.float32))
        loss = cross_entropy(model.forward(x, training=True),
                             rng.integers(0, 10, size=8))
        loss.backward()
        return model

    def test_records_cover_every_linear_layer(self):
        model = self.make_model_with_grads()
        records = collect_records(model, step=3, lr=0.01)
        assert [r.layer for r in records] == list(range(7))
        assert all(r.step == 3 and r.lr == 0.01 for r in records)
        assert all(r.var_grad is not None for r in records)

    def test_kappa0_only_on_last_layer(self):
        records = collect_records(self.make_model_with_grads(), 0, 0.0)
        assert records[-1].kappa0 is not None
        assert all(r.kappa0 is None for r in records[:-1])
        assert records[-1].kappa1 is None

    def test_sat_kappa0_locked_by_rescale(self):
        records = collect_records(self.make_model_with_grads(), 0, 0.0)
        fc = records[-1]
        # constant rescale pins var_weight * n_hat to 1
        assert fc.kappa0 == pytest.approx(fc.n_in / (fc.n_hat * 16.0), rel=1e-6)

    def test_skip_adjacent_pairs_left_blank(self):
        model = self.make_model_with_grads(preset="preresnet-toy")
        records = collect_records(model, 0, 0.0)
        by_layer = {r.layer: r for r in records}
        infos = model.linear_infos()
        for info, rec in zip(infos, records):
            if info.skip_boundary:
                assert rec.kappa1 is None and rec.kappa2 is None
        # at least one plain consecutive pair is computed
        assert any(r.kappa1 is not None for r in records)

    def test_static_records_have_no_gradients(self):
        model = build_preset("convnet-bn", weight_bits="fp", seed=19)
        records = collect_records(model, 0, None)
        assert all(r.var_grad is None for r in records)
        assert records[-1].kappa0 is not None


class TestEtrCheck:
    def record(self, kappa0=None):
        return DiagnosticsRecord(step=0, layer=6, n_in=12, n_hat=10, k_pool=1.0,
                                 var_weight=0.1, var_grad=None, kappa0=kappa0,
                                 kappa1=None, kappa2=None, alpha=None, lr=None)

    def test_reference_vanilla_passes(self):
        model = build_preset("convnet-bn", weight_bits="raw", seed=20)
        report = etr_check(model, [self.record(kappa0=0.02)])
        assert report.verdict("ETR-I") == "PASS"

    def test_reference_clamped_fails(self):
        model = build_preset("convnet-bn", weight_bits="raw", seed=20)
        report = etr_check(model, [self.record(kappa0=1.0)])
        assert report.verdict("ETR-I") == "FAIL"
        assert not report.passed

    def test_warn_band(self):
        model = build_preset("convnet-bn", weight_bits="raw", seed=20)
        assert etr_check(model, [self.record(kappa0=0.5)]).verdict("ETR-I") == "WARN"

    def test_sat_model_passes_both_rules(self):
        model = build_preset("convnet-bn", weight_bits="fp",
                             rescale=RescaleMode.CONSTANT, seed=21)
        report = etr_check(model, collect_records(model, 0, None))
        assert report.passed

    def test_raw_kaiming_init_passes(self):
        model = build_preset("convnet-bn", weight_bits="raw", seed=22)
        report = etr_check(model, collect_records(model, 0, None))
        assert report.passed

    def test_rule_two_band(self):
        # no rescale: the weight-variance-times-fan-out product must stay
        # within one decade of 1
        model = build_preset("convnet-nobn-tail", weight_bits="raw", seed=23)
        report = etr_check(model, collect_records(model, 0, None))
        assert report.verdict("ETR-II") == "PASS"  # raw init product is ~1
        tail = model.layer_table[-2].layer
        tail.w.data = tail.w.data * 5.0  # product ~25, outside the band
        tail.last_effective = None
        report = etr_check(model, collect_records(model, 0, None))
        assert report.verdict("ETR-II") == "FAIL"

    def test_clamped_tail_without_rescale_is_near_the_band_edge(self):
        # clamping inflates the tail conv's weight variance by roughly
        # fan_out / max_z^2; at this layer size that lands just inside the
        # decade band (the rule fires on bigger layers or once training
        # spreads the weights)
        model = build_preset("convnet-nobn-tail", weight_bits="fp",
                             rescale=RescaleMode.NONE, seed=23)
        records = collect_records(model, 0, None)
        tail = [r for r in records if r.layer == 5][0]
        assert tail.var_weight * tail.n_hat > 3.0

    def test_verdicts_do_not_depend_on_rng_state(self):
        model = build_preset("convnet-bn", weight_bits="fp",
                             rescale=RescaleMode.CONSTANT, seed=24)
        records = collect_records(model, 0, None)
        first = etr_check(model, records)
        np.random.default_rng(0).normal(size=1000)  # churn unrelated RNG
        second = etr_check(model, records)
        assert [r.verdict for r in first.rows] == [r.verdict for r in second.rows]


class TestClampVarianceStudy:
    def test_thousand_neuron_amplification(self):
        rows = dict(clamp_variance_study([1000], samples=20_000, seed=0))
        assert 5.0 <= rows[1000] <= 100.0

    def test_monotone_trend(self):
        medians = []
        for n in (10, 100, 1000, 10_000):
            ratios = [dict(clamp_variance_study([n], samples=10_000, seed=s))[n]
                      for s in range(5)]
            medians.append(np.median(ratios))
        assert all(a < b for a, b in zip(medians, medians[1:]))

    def test_near_constant_input_stays_finite(self):
        # all weights at nearly the same magnitude: clamp maps them toward
        # +-1, the ratio approaches 1/mean_square and stays finite
        rng = np.random.default_rng(1)
        w = 0.5 + 1e-4 * rng.standard_normal(10_000)
        from qsat.quant import QuantScheme, effective_weight
        from qsat.tensor import mean_square_value, no_grad

        with no_grad():
            out = effective_weight(Tensor(w), QuantScheme(bits=None))
        ratio = mean_square_value(out) / mean_square_value(w)
        assert np.isfinite(ratio)
        assert ratio <= 1.0 / mean_square_value(w)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            clamp_variance_study([100], samples=100)


class TestQuantVarianceStudy:
    def test_high_precision_ratio_near_one(self):
        rows = dict(quant_variance_study(range(1, 9)))
        for b in range(4, 9):
            assert abs(rows[b] - 1.0) <= 0.05, (b, rows[b])
        # three bits sits right at the edge: measurably inflated but small
        assert abs(rows[3] - 1.0) <= 0.08

    def test_one_bit_deviates(self):
        rows = dict(quant_variance_study([1]))
        assert abs(rows[1] - 1.0) > 0.20

    def test_channel_count_insensitive(self):
        a = dict(quant_variance_study(range(1, 9), n=256))
        b = dict(quant_variance_study(range(1, 9), n=1024))
        for bits in range(1, 9):
            assert a[bits] == pytest.approx(b[bits], rel=0.10)


class TestSerialization:
    def make_records(self):
        return [
            DiagnosticsRecord(step=0, layer=0, n_in=27, n_hat=144, k_pool=2.0,
                              var_weight=0.01, var_grad=1e-6, kappa0=None,
                              kappa1=1.25, kappa2=float("nan"), alpha=None,
                              lr=0.00625),
            DiagnosticsRecord(step=0, layer=6, n_in=12, n_hat=10, k_pool=1.0,
                              var_weight=0.1, var_grad=2e-5, kappa0=0.075,
                              kappa1=None, kappa2=None, alpha=7.5, lr=0.00625),
        ]

    def test_csv_columns_exact(self):
        text = records_to_csv(self.make_records())
        header = text.splitlines()[0]
        assert header == "step,layer,n_in,n_hat,k_pool,var_weight,var_grad,kappa0,kappa1,kappa2,alpha,lr"

    def test_csv_empty_vs_nan_fields(self):
        rows = list(csv.DictReader(io.StringIO(records_to_csv(self.make_records()))))
        assert rows[0]["kappa0"] == ""
        assert rows[0]["kappa2"] == "nan"
        assert rows[1]["alpha"] == "7.5"
        assert float(rows[1]["kappa0"]) == 0.075

    def test_json_field_names_match(self):
        payload = json.loads(records_to_json(self.make_records()))
        assert set(payload[0].keys()) == set(CSV_COLUMNS)
        assert payload[0]["kappa2"] is None  # nan is not valid JSON
        assert payload[1]["kappa0"] == 0.075
