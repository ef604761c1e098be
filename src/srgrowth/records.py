"""The model ids and the records of a fit.

Fitting writes these records and the statistics and reports read them;
they live apart from the kernels and the fitting engine so that verbs
which never fit can use them without loading numpy.  ``models`` and
``fitting`` re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class GofScores:
    r2: float
    aic: float
    bic: float
    rse: float


@dataclass(frozen=True)
class FitResult:
    model: ModelId
    params: tuple[float, ...]
    rss: float
    converged: bool
    iterations_used: int
    gof: GofScores
