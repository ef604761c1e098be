"""The model ids and the records of a fit.

Fitting writes these records and the statistics and reports read them;
they live apart from the kernels and the fitting engine so that verbs
which never fit can use them without loading numpy.  ``models`` and
``fitting`` re-export them.

A record that only holds values is a ``NamedTuple``, here and across the
package.  A record that checks or normalises its inputs in
``__post_init__`` (``FitConfig``, ``FailureSeries``, ``ReleaseWindow``) is
a frozen dataclass instead; a ``FailureSeries`` must also not be a tuple,
whose ``len()`` would count its fields, not its points.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .reporting import GOF_METRICS


# The members' order is the canonical presentation order (concave pair,
# finite-over-infinite families as usually tabulated); batch fitting and
# reports follow it as ``MODEL_ORDER``.
class ModelId(str, Enum):
    GO = "GO"
    GOS = "GOS"
    HD = "HD"
    MO = "MO"
    DU = "DU"
    WE = "WE"
    YE = "YE"
    YR = "YR"
    LL = "LL"

    def __str__(self) -> str:  # "GO" rather than "ModelId.GO" in reports
        return self.value


MODEL_ORDER: tuple[ModelId, ...] = tuple(ModelId)

GofScores = NamedTuple("GofScores", [(metric, float) for metric in GOF_METRICS])


class FitResult(NamedTuple):
    model: ModelId
    params: tuple[float, ...]
    rss: float
    converged: bool
    iterations_used: int
    gof: GofScores
