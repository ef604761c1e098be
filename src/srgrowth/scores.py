"""Names of the fit scores and the effect-size cuts.

The statistics and the reports both use them; they live apart from either
so that verbs which never fit can read them without loading numpy.
"""

GOF_METRICS = ("r2", "aic", "bic", "rse")

EFFECT_THRESHOLDS = (0.01, 0.06, 0.14)
