"""Golden digest: a fixed tiny sweep must reproduce its reports bit for bit.

Every strategy runs the same small experiment and every report row, minus
the timing field ``query_wall_ms``, is hashed in order. A refactor proves it
kept behaviour by leaving the digest alone. A change that alters behaviour on
purpose replaces ``GOLDEN_DIGEST`` with the value the failure prints and
says why in CHANGES.md.
"""

import hashlib
import json

from conal.data import DatasetSpec, ShiftSpec, balanced_test_spec, generate_mixture, generate_ood
from conal.loop import LoopConfig, run_active_learning
from conal.metrics import write_reports_jsonl
from conal.model import ModelConfig

GOLDEN_DIGEST = "c2b4d07ff8ff57d046e680ffc328e2c1d393b9f7b1f44ec05424067a463bda95"

STRATEGIES = ("random", "entropy", "bald", "coreset", "featuresim", "fre")


def golden_digest(tmp_path) -> str:
    ds = DatasetSpec(k=4, d=8, n_per_class=60, imbalance_ratio=4.0,
                     class_separation=4.0, noise_sigma=1.0, seed=0)
    pool = generate_mixture(ds, id_prefix="tr-")
    test = generate_mixture(balanced_test_spec(ds, 20), id_prefix="te-")
    ood = generate_ood(ds, 30, ds.seed + 2)
    shifts = [ShiftSpec("additive_gaussian", 3), ShiftSpec("mean_drift", 2)]
    model = ModelConfig(d_in=8, n_classes=4, d_hidden=16, d_feat=8, d_proj=4,
                        epochs=3, batch_size=32, seed=0)
    digest = hashlib.sha256()
    for strategy in STRATEGIES:
        loop = LoopConfig(budget=80, acquisition_size=20, subset_size=60,
                          strategy=strategy, seed=0, tau=3)
        result = run_active_learning(pool, test, model, loop, ood=ood, shifts=shifts)
        assert len(result.reports) == 4
        path = tmp_path / f"{strategy}.jsonl"
        write_reports_jsonl(result.reports, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            row.pop("query_wall_ms")
            digest.update(json.dumps(row, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def test_golden_digest(tmp_path):
    digest = golden_digest(tmp_path)
    assert digest == GOLDEN_DIGEST, f"report digest changed: new digest {digest}"
