"""The identity chain of ``verify`` on a chunk whose points all stop at
one stage."""

import numpy as np
import pytest

from nhfields.cli import DEFAULT_TOLERANCES
from nhfields.constraint import ConstraintSpec, make_constraint
from nhfields.exceptions import ConstraintRankError, EvaluationError
from nhfields.jet import Dims, JetPoint
from nhfields.lagrangian import LagrangianModel, make_model
from nhfields.verify import verify_points


def _wave_points():
    """Three wave jet points at x^0 = 0."""
    rng = np.random.default_rng(3)
    return [JetPoint([0.0, rng.uniform(-1, 1)], rng.uniform(-1, 1, 1),
                     rng.uniform(-1, 1, (1, 2))) for _ in range(3)]


@pytest.mark.parametrize("model, spec, error, message", [
    (LagrangianModel("infinite", Dims(1, 1), lambda x, y, v: np.inf * (v[0][0] * v[0][0])),
     make_constraint("linear-transport"), EvaluationError, "non-finite L"),
    (make_model("wave"), ConstraintSpec(Dims(1, 1, 1), [lambda x, y, v: x[0]]),
     ConstraintRankError, "rank 0 < k=1"),
], ids=["bundle", "rank"])
def test_a_chunk_whose_points_all_stop_returns_each_points_error(model, spec, error, message):
    out = verify_points(model, spec, _wave_points(), np.random.default_rng(1),
                        DEFAULT_TOLERANCES, 5)
    assert len(out) == 3
    for err in out:
        assert isinstance(err, error) and message in str(err), err
