"""The model ids, the static model table and the records of a fit.

Fitting writes these records and the statistics and reports read them;
they live apart from the kernels and the fitting engine so that verbs
which never fit can use them without loading numpy.  The static model
table (``descriptor``, ``classify``) is here so that ``fit`` knows the
points its models need before its input stage forks, and numpy loads.
``models`` re-exports the ids and the table, ``fitting`` the records.

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


class ShapeClass(str, Enum):
    CONCAVE = "Concave"
    S_SHAPED = "S-Shaped"
    INFINITE = "Infinite"

    def __str__(self) -> str:
        return self.value


class ModelDescriptor(NamedTuple):
    """Static description of one model.

    The first parameter is the scale: m(t) is linear in it.  ``zero_ok``
    marks parameters whose mathematical domain includes zero; only the
    shape parameter of HD qualifies (at c = 0 HD reduces to GO).
    """

    id: ModelId
    shape: ShapeClass
    param_names: tuple[str, ...]
    zero_ok: tuple[bool, ...]

    @property
    def k(self) -> int:
        return len(self.param_names)


_DESCRIPTORS: dict[ModelId, ModelDescriptor] = {
    d.id: d
    for d in (
        ModelDescriptor(ModelId.GO, ShapeClass.CONCAVE, ("a", "b"), (False, False)),
        ModelDescriptor(ModelId.GOS, ShapeClass.S_SHAPED, ("a", "b"), (False, False)),
        ModelDescriptor(ModelId.HD, ShapeClass.CONCAVE, ("a", "b", "c"), (False, False, True)),
        ModelDescriptor(ModelId.MO, ShapeClass.INFINITE, ("α", "β"), (False, False)),
        ModelDescriptor(ModelId.DU, ShapeClass.INFINITE, ("α", "β"), (False, False)),
        ModelDescriptor(ModelId.WE, ShapeClass.CONCAVE, ("a", "b", "c"), (False, False, False)),
        ModelDescriptor(ModelId.YE, ShapeClass.CONCAVE, ("a", "r·α", "β"), (False, False, False)),
        ModelDescriptor(ModelId.YR, ShapeClass.S_SHAPED, ("a", "r·α", "β"), (False, False, False)),
        ModelDescriptor(ModelId.LL, ShapeClass.S_SHAPED, ("a", "λ", "κ"), (False, False, False)),
    )
}


def descriptor(model: ModelId | str) -> ModelDescriptor:
    return _DESCRIPTORS[ModelId(model)]


def classify(model: ModelId | str) -> ShapeClass:
    """Shape class of the model's mean value curve."""
    return descriptor(model).shape


GofScores = NamedTuple("GofScores", [(metric, float) for metric in GOF_METRICS])


class FitResult(NamedTuple):
    model: ModelId
    params: tuple[float, ...]
    rss: float
    converged: bool
    iterations_used: int
    gof: GofScores
