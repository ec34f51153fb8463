"""Report assembly in evaluate_corpora."""

import numpy as np

from faultgen import metrics
from faultgen.data import generate_normal


def test_seed_free_scores_run_once_and_match_single_seed_calls(monkeypatch):
    real = generate_normal(8, 2, 12, seed=1)
    synth = generate_normal(8, 2, 12, seed=2, noise_std=0.2)
    singles = [metrics.evaluate_corpora(real, synth, seeds=(s,)) for s in range(5)]

    calls = {name: 0 for name in ("context_fid", "correlational_score", "diversity_score")}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(metrics, name, counted)
    report = metrics.evaluate_corpora(real, synth, seeds=(0, 1, 2, 3, 4))

    assert calls == {name: 1 for name in calls}
    assert list(report.values) == list(metrics.METRIC_NAMES)
    for m, per_seed in report.values.items():
        assert list(per_seed) == ["0", "1", "2", "3", "4"]
        assert per_seed == {str(s): single.values[m][str(s)] for s, single in enumerate(singles)}
        assert report.medians[m] == float(np.median(list(per_seed.values())))
    assert len(set(report.values["predictive"].values())) == 5
