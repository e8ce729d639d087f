"""The 13 value types: immutable, equal when built from the same inputs, with a fixed repr, copied and pickled."""

import copy
import pickle
import re

import numpy as np
import pytest

from focklab import (
    AsymptoticReport,
    CanonicalDecomposition,
    ConfigError,
    ConvergenceReport,
    DecayReport,
    EnsembleConfig,
    FiniteKernel,
    HomogeneousHermitianPoly,
    IntensityHistogram,
    MacroscopicPotential,
    McmcResult,
    MicroscopicPotential,
    MomentMatrix,
    TruncatedKernel,
)

# equal instances hold the same array objects: arrays of equal values compare elementwise, not as one bool
R = np.array([1.0, 2.0])
N = np.array([4, 16])
MASK = np.array([True, True])
EDGES = np.array([0.0, 1.0, 2.0])


def _poly():
    return HomogeneousHermitianPoly(2, {(1, 1): 1.0})


def _micro():
    return MicroscopicPotential(1, 0.5, _poly())


def _macro():
    return MacroscopicPotential("radial", 0.5, {1: 1.0})


def _histogram():
    return IntensityHistogram(edges=EDGES, counts=R, recorded=2, batch_counts=R, batch_recorded=N)


POLY = "HomogeneousHermitianPoly(degree=2, coeffs={(1, 1): (1+0j)})"
MICRO = f"MicroscopicPotential(k=1, c=0.5, q0={POLY})"
MACRO = "MacroscopicPotential(kind='radial', c=0.5, radial_coeffs={1: 1.0}, hermitian_coeffs={(1, 1): (1+0j)})"
HISTOGRAM = ("IntensityHistogram(edges=array([0., 1., 2.]), counts=array([1., 2.]), recorded=2, "
             "batch_counts=array([1., 2.]), batch_recorded=array([ 4, 16]))")

# type -> (a factory, its first field, the repr of what it builds)
TYPES = {
    HomogeneousHermitianPoly: (_poly, "degree", POLY),
    MicroscopicPotential: (_micro, "k", MICRO),
    MacroscopicPotential: (_macro, "kind", MACRO),
    CanonicalDecomposition: (
        lambda: CanonicalDecomposition(q0=_micro(), h_coeffs={2: 0.6 + 0j}, q1_coeffs={}), "q0",
        f"CanonicalDecomposition(q0={MICRO}, h_coeffs={{2: (0.6+0j)}}, q1_coeffs={{}})"),
    DecayReport: (
        lambda: DecayReport(k=1, c=0.5, amplitude=1.0, r=R, u=R, rel_err=R, usable=MASK, n_used=2, n_excluded=0,
                            identically_zero=False, fit_ok=False), "k",
        "DecayReport(k=1, c=0.5, amplitude=1.0, r=array([1., 2.]), u=array([1., 2.]), rel_err=array([1., 2.]), "
        "usable=array([ True,  True]), n_used=2, n_excluded=0, identically_zero=False, fit_ok=False, slope=None, "
        "ln_power=None, intercept=None, alpha=None)"),
    AsymptoticReport: (
        lambda: AsymptoticReport(k=1, c=0.5, tau0=1.0, n=N, rn=R, en=R, C=1.0), "k",
        "AsymptoticReport(k=1, c=0.5, tau0=1.0, n=array([ 4, 16]), rn=array([1., 2.]), en=array([1., 2.]), C=1.0)"),
    FiniteKernel: (
        lambda: FiniteKernel(n=2, potential=_macro(), log_norms=R, error_estimate=1e-13), "n",
        f"FiniteKernel(n=2, potential={MACRO}, log_norms=array([1., 2.]), error_estimate=1e-13)"),
    ConvergenceReport: (
        lambda: ConvergenceReport(k=1, c=0.5, lam=1.0, z=R, r0=R, n=N, rn=R, values=R, sup_err=R), "k",
        "ConvergenceReport(k=1, c=0.5, lam=1.0, z=array([1., 2.]), r0=array([1., 2.]), n=array([ 4, 16]), "
        "rn=array([1., 2.]), values=array([1., 2.]), sup_err=array([1., 2.]))"),
    MomentMatrix: (
        lambda: MomentMatrix(weight=_micro(), entries=R, scale=R), "weight",
        f"MomentMatrix(weight={MICRO}, entries=array([1., 2.]), scale=array([1., 2.]))"),
    TruncatedKernel: (
        lambda: TruncatedKernel(weight=_micro(), basis=R, condition=1.0), "weight",
        f"TruncatedKernel(weight={MICRO}, basis=array([1., 2.]), condition=1.0)"),
    IntensityHistogram: (_histogram, "edges", HISTOGRAM),
    McmcResult: (
        lambda: McmcResult(histogram=_histogram(), acceptance_rate=0.5, delta_final=0.3), "histogram",
        f"McmcResult(histogram={HISTOGRAM}, acceptance_rate=0.5, delta_final=0.3, moduli=None)"),
    EnsembleConfig: (
        lambda: EnsembleConfig(n=4, potential=_macro(), bin_edges=EDGES), "n",
        f"EnsembleConfig(n=4, potential={MACRO}, bin_edges=array([0., 1., 2.]), sweeps=10000, burn_in=1000, "
        "seed=0, collect_moduli=False)"),
}


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestValueType:
    def test_fields_are_read_only(self, cls):
        make, field, _ = TYPES[cls]
        obj = make()
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))

    def test_same_inputs_compare_equal(self, cls):
        make, _, _ = TYPES[cls]
        assert make() == make()

    def test_repr(self, cls):
        make, _, text = TYPES[cls]
        assert repr(make()) == text

    def test_copy_and_pickle_keep_the_value(self, cls):
        make, _, text = TYPES[cls]
        obj = make()
        for twin in copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)):
            assert type(twin) is cls and repr(twin) == text


# the types whose constructor checks its fields -> a factory, a field, a value it refuses, and the refusal; a
# radial MacroscopicPotential spells its terms in both coefficient maps and is rebuilt from radial_coeffs
VALIDATED = {
    "HomogeneousHermitianPoly": (_poly, "degree", 3, "degree must be a nonnegative even integer, got 3"),
    "MicroscopicPotential": (_micro, "c", -2, "c must be finite and > -1, got -2"),
    "MacroscopicPotential": (
        lambda: MacroscopicPotential("hermitian", 0.5, hermitian_coeffs={(1, 1): 1.0, (2, 0): 0.3, (0, 2): 0.3}),
        "c", -2, "c must be finite and > -1, got -2"),
    "radial MacroscopicPotential": (_macro, "c", -2, "c must be finite and > -1, got -2"),
    "EnsembleConfig": (TYPES[EnsembleConfig][0], "sweeps", 1, "sweeps must be an integer >= 2, got 1"),
}


@pytest.mark.parametrize("name", VALIDATED)
def test_replace_runs_the_constructor_checks(name):
    make, field, bad, refusal = VALIDATED[name]
    obj = make()
    with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
        obj._replace(**{field: bad})
    assert obj._replace(**{field: getattr(obj, field)}) == obj


def test_replace_of_a_radial_potential_keeps_one_spelling():
    # a change to either map of a radial Q gives the Q that map spells, if the other spells the same terms
    Q = _macro()
    assert Q._replace(c=0.75) == MacroscopicPotential("radial", 0.75, {1: 1.0})
    assert Q._replace(radial_coeffs={1: 2.0}, hermitian_coeffs={(1, 1): 2.0}) == MacroscopicPotential(
        "radial", 0.5, {1: 2.0})
    for change in {"radial_coeffs": {2: 1.0}}, {"hermitian_coeffs": {(2, 2): 1.0}}:
        with pytest.raises(ConfigError, match="^radial_coeffs and hermitian_coeffs of a radial potential spell "
                                              "different terms$"):
            Q._replace(**change)
    with pytest.raises(ConfigError, match="^a radial potential needs radial_coeffs and no other coefficients$"):
        Q._replace(radial_coeffs=None)


def test_replace_normalises_as_the_constructor_does():
    p = _poly()._replace(degree=np.int64(2), coeffs={(np.int64(1), 1): 1})
    assert repr(p) == POLY and type(p.degree) is int and all(type(i) is int for ij in p.coeffs for i in ij)
