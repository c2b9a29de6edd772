"""Frozen records holding ndarrays compare and hash by identity.

Field-wise equality would compare arrays, which has no single truth value,
and field-wise hashing would hash arrays, which are unhashable.
"""

import numpy as np
import pytest

from faschan.arfit import ArpModel, check_stability
from faschan.correlation import ToeplitzCovariance, eigen_spectrum
from faschan.interpolation import ObservationSet, ReconstructionResult
from faschan.selection_gain import CdfCurve, empirical_cdf_max_gain

COVARIANCE_ROW = [1.0, 0.5, 0.1]

RECORDS = {
    "ArpModel": lambda: ArpModel(alpha=[0.5, 0.1], sigma_eps2=1.0),
    "StabilityReport": lambda: check_stability(ArpModel(alpha=[0.5, 0.1], sigma_eps2=1.0)),
    "ToeplitzCovariance": lambda: ToeplitzCovariance(first_row=COVARIANCE_ROW),
    "EigenSpectrum": lambda: eigen_spectrum(ToeplitzCovariance(first_row=COVARIANCE_ROW)),
    "ObservationSet": lambda: ObservationSet(indices=[1, 3], values=[1.0, 0.5j]),
    "ReconstructionResult": lambda: ReconstructionResult(means=np.zeros(3), posterior=(np.ones(3), 0.5)),
    "CdfCurve": lambda: empirical_cdf_max_gain(np.array([1.0, 2.0, 3.0]), [1.5, 2.5]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_by_identity(name):
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name
    assert (first == first) is True
    assert (first == second) is False
    assert (first != second) is True
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


def test_cdf_curve_with_every_field():
    curve = CdfCurve(
        thresholds=np.ones(2), values=np.ones(2), raw_values=np.ones(2), extinction_steps=-np.ones(2)
    )
    assert curve != CdfCurve(thresholds=np.ones(2), values=np.ones(2))
    assert hash(curve) == hash(curve)
