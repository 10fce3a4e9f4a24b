"""The paper's result shapes (EXPERIMENTS.md), checked at a small scale.

The full experiments live in ``benchmarks/`` and take minutes; these
seeded, scaled-down replays keep the shapes in the tier-1 suite, so a
quality regression in a learner or the constraint handler fails here.
"""

import pytest

from repro.datasets import load_domain
from repro.evaluation import ExperimentSettings, run_feedback_study

#: The small profile: few listings and instances, one seed.
SMALL = ExperimentSettings(n_listings=10, trials=1, max_splits=1,
                           max_instances_per_tag=25, seed=0)


@pytest.mark.parametrize("domain", ["time_schedule", "real_estate_2"])
def test_e7_feedback_reaches_perfect_matching_with_few_corrections(domain):
    """E7 (§6.3): reviewing tags in structure-score order and correcting
    the first wrong label, each session reaches 100% accuracy after far
    fewer corrections than the source has tags."""
    study = run_feedback_study(load_domain(domain, seed=0), SMALL, runs=3)

    for outcome in study.outcomes:
        assert outcome.final_accuracy == 1.0
        assert outcome.corrections <= 0.5 * outcome.total_tags
