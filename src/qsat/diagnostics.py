"""Gradient-flow diagnostics: the kappa metrics, the two training rules,
and the weight-variance studies.

kappa0 measures how close the last layer's logits sit to the softmax
saturation region; kappa1/kappa2 are the proportionality constants of the
gradient-variance relation between adjacent linear layers (with and
without batch normalization), read off two adjacent ``DiagnosticsRecord``
rows.  Healthy training keeps kappa0 well below one and kappa1 of order
one.

Every CSV file qsat writes (the diagnostics rows, ``metrics.csv`` and the
variance studies) goes through ``csv_text``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, asdict, astuple, fields

import numpy as np

from .tensor import mean_square_value, no_grad
from .quant import RescaleMode, weight_grid

__all__ = [
    "DiagnosticsRecord",
    "kappa0",
    "kappa1",
    "kappa2",
    "collect_records",
    "EtrReport",
    "etr_check",
    "clamp_variance_study",
    "quant_variance_study",
    "csv_text",
    "records_to_csv",
    "records_to_json",
    "CSV_COLUMNS",
]

ETR1_PASS = 0.1
ETR1_WARN = 1.0
ETR2_LOW = 0.1
ETR2_HIGH = 10.0


@dataclass
class DiagnosticsRecord:
    """Per-step, per-layer snapshot row.

    ``k_pool`` is the pool kernel of the layer's own block as built.
    """

    step: int
    layer: int
    n_in: int
    n_hat: int
    k_pool: float
    var_weight: float
    var_grad: float | None
    kappa0: float | None
    kappa1: float | None
    kappa2: float | None
    alpha: float | None
    lr: float | None


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def kappa0(var_weight_last: float, n_last: int, k_pool: float) -> float:
    """Saturation metric of the last fully-connected layer."""
    if var_weight_last <= 0 or n_last <= 0 or k_pool <= 0:
        raise ValueError("kappa0 inputs must be positive")
    return n_last * var_weight_last / (k_pool * k_pool)


def kappa1(row_l: DiagnosticsRecord, row_l1: DiagnosticsRecord) -> float:
    """Gradient-flow constant between the rows of adjacent layers l and
    l+1 (BN case).

    NaN marks a dead layer (zero gradient variance) rather than raising.
    """
    if not row_l.var_grad or not row_l1.var_grad:
        return float("nan")
    weight_ratio = (row_l.n_in * row_l.var_weight) / (
        row_l1.n_hat * row_l1.var_weight
    )
    grad_ratio = row_l.var_grad / row_l1.var_grad
    return (row_l.k_pool**2) * weight_ratio * grad_ratio


def kappa2(row_l: DiagnosticsRecord, row_l1: DiagnosticsRecord) -> float:
    """Gradient-flow constant between the rows of adjacent layers l and
    l+1 (no-BN case)."""
    if not row_l.var_grad or not row_l1.var_grad:
        return float("nan")
    denom = row_l1.n_hat * row_l1.var_weight * row_l1.var_grad
    return (row_l.k_pool**4) * row_l.var_grad / denom


def collect_records(model, step: int, lr: float | None) -> list[DiagnosticsRecord]:
    """Sample one row per linear layer from the most recent backward pass.

    During training this must run after ``loss.backward()`` and before the
    optimizer step so the gradients are the raw loss gradients, untouched by
    weight decay or momentum.  kappa1/kappa2 are attached to the lower layer
    of each adjacent pair; pairs that straddle a residual add are left
    blank.  On a model with no forward pass yet, e.g. one just loaded from a
    checkpoint, the rows hold the weight statistics alone: ``var_grad``,
    kappa1 and kappa2 stay blank.
    """
    infos = model.linear_infos()
    records = []
    for info in infos:
        eff = info.layer.last_effective
        if eff is None:
            with no_grad():
                eff = info.layer.effective()
        records.append(
            DiagnosticsRecord(
                step=step,
                layer=info.index,
                n_in=info.layer.n_in,
                n_hat=info.layer.n_hat,
                k_pool=info.k_pool,
                var_weight=mean_square_value(eff.data),
                var_grad=None if eff.grad is None else mean_square_value(eff.grad),
                kappa0=None,
                kappa1=None,
                kappa2=None,
                alpha=info.pact.alpha_value if info.pact else None,
                lr=lr,
            )
        )
    last = records[-1]
    last.kappa0 = kappa0(last.var_weight, last.n_in, infos[-1].preceding_pool_k)
    for info, row, upper in zip(infos, records, records[1:]):
        if not info.skip_boundary and row.var_grad is not None and upper.var_grad is not None:
            row.kappa1 = kappa1(row, upper)
            row.kappa2 = kappa2(row, upper)
    return records


@dataclass
class EtrRow:
    rule: str
    scope: str
    verdict: str   # PASS | WARN | FAIL
    value: float | None


@dataclass
class EtrReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.verdict == "PASS" for r in self.rows)

    def verdict(self, rule: str) -> str:
        verdicts = [r.verdict for r in self.rows if r.rule == rule]
        for v in ("FAIL", "WARN"):
            if v in verdicts:
                return v
        return "PASS"

    def table(self) -> str:
        lines = [f"{'rule':8} {'scope':16} {'verdict':8} value"]
        for r in self.rows:
            val = "" if r.value is None else f"{r.value:.6g}"
            lines.append(f"{r.rule:8} {r.scope:16} {r.verdict:8} {val}")
        return "\n".join(lines)


def etr_check(model, records: list[DiagnosticsRecord]) -> EtrReport:
    """Verdicts for the two training rules.

    Rule 1 (logit saturation): kappa0 of the last layer < 0.1 passes,
    < 1 warns, otherwise fails.  Rule 2 (gradient scale): every linear
    layer no BN follows must either have rescaling enabled or, in its row
    of ``records``, a ``var_weight`` commensurate with 1/fan_out.
    """
    rows = []
    k0_values = [r.kappa0 for r in records if r.kappa0 is not None]
    if k0_values:
        worst = max(k0_values)
        verdict = "PASS" if worst < ETR1_PASS else ("WARN" if worst < ETR1_WARN else "FAIL")
        rows.append(EtrRow("ETR-I", "last-layer", verdict, worst))
    latest = {r.layer: r for r in records}
    for info in model.linear_infos():
        layer = info.layer
        if info.follows_bn:
            continue
        if layer.scheme is not None and layer.scheme.rescale is not RescaleMode.NONE:
            rows.append(EtrRow("ETR-II", info.name, "PASS", None))
            continue
        product = latest[info.index].var_weight * layer.n_hat
        ok = ETR2_LOW <= product <= ETR2_HIGH
        rows.append(EtrRow("ETR-II", info.name, "PASS" if ok else "FAIL", product))
    return EtrReport(rows)


# -- variance studies -----------------------------------------------------


def clamp_variance_study(
    n_values, samples: int = 10_000, seed: int = 0
) -> list[tuple[int, float]]:
    """Variance amplification of tanh-max clamping vs neuron count.

    For each n, draws Gaussian weights with variance 1/n and reports
    mean_square_value(clamped) / mean_square_value(original).
    """
    if samples < 10_000:
        raise ValueError("study needs at least 10000 samples per point")
    rows = []
    for n in n_values:
        if n <= 0:
            raise ValueError(f"neuron counts must be positive, got {n}")
        rng = np.random.default_rng([seed, int(n)])
        w = rng.normal(0.0, 1.0 / math.sqrt(n), size=samples)
        clamped = weight_grid(w, None)[0] * 2.0 - 1.0
        rows.append((int(n), mean_square_value(clamped) / mean_square_value(w)))
    return rows


def quant_variance_study(
    b_values, n: int = 256, samples: int = 10_000, seed: int = 0
) -> list[tuple[int, float]]:
    """Std ratio of quantized vs clamped weights against bit-width.

    Gaussian weights with variance 1/n; reports
    sqrt(mean_square_value(quantized) / mean_square_value(clamped)) per bit-width.
    """
    rng = np.random.default_rng([seed, int(n)])
    w = rng.normal(0.0, 1.0 / math.sqrt(n), size=samples)
    base = mean_square_value(weight_grid(w, None)[0] * 2.0 - 1.0)
    rows = []
    for b in b_values:
        if b < 1:
            raise ValueError(f"bit-widths must be >= 1, got {b}")
        q = weight_grid(w, int(b))[0] * 2.0 - 1.0
        rows.append((int(b), math.sqrt(mean_square_value(q) / base)))
    return rows


# -- serialization ----------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def csv_text(header, rows) -> str:
    """A CSV file's text: the header, then one line per row, each value
    formatted by ``_fmt``, every line ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def records_to_csv(records: list[DiagnosticsRecord]) -> str:
    return csv_text(CSV_COLUMNS, map(astuple, records))


def records_to_json(records: list[DiagnosticsRecord]) -> str:
    def clean(d):
        return {k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in d.items()}

    return json.dumps([clean(asdict(r)) for r in records], indent=1)
