"""Compiled generator fast path vs the interpreted oracle.

The compiled path (expression codegen + one-pass generator assembly)
must be *numerically indistinguishable* from the interpreted
per-transition tree walk: the property tests here assert agreement to
1e-12 across random occupancy vectors for every bundled model, plus
batch/scalar consistency and drift equality — at deep local chains
(K = 1001) too, where rate sources are shared across transitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidRateError, ModelError
from repro.meanfield.compiled import DRIFT_ACTION_MIN_K, CompiledGenerator
from repro.meanfield.expressions import (
    Binary,
    Const,
    Expression,
    Occupancy,
    Time,
)
from repro.meanfield.local_model import LocalModelBuilder
from repro.meanfield.overall_model import MeanFieldModel
from repro.meanfield.rates import evaluate_rate
from repro.models.botnet import botnet_model
from repro.models.diurnal import diurnal_virus_model
from repro.models.epidemic import sir_model, sis_model
from repro.models.gossip import gossip_model
from repro.models.load_balancing import (
    deep_load_balancing_model,
    load_balancing_model,
)
from repro.models.population import PopulationParameters, population_model
from repro.models.virus import (
    SETTING_1,
    SETTING_2,
    virus_model,
    virus_model_declarative,
    virus_model_epidemiological,
)

TOL = 1e-12

MODEL_FACTORIES = {
    "virus": lambda: virus_model(SETTING_1),
    "virus_setting2": lambda: virus_model(SETTING_2),
    "virus_epidemiological": virus_model_epidemiological,
    "virus_declarative": virus_model_declarative,
    "botnet": botnet_model,
    "sis": sis_model,
    "sir": sir_model,
    "gossip": gossip_model,
    "load_balancing": load_balancing_model,
    "diurnal": diurnal_virus_model,
}


def random_occupancies(k: int, n: int, seed: int = 0) -> np.ndarray:
    """``n`` random interior points of the ``K``-simplex."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=n)


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_compiled_generator_matches_interpreted(name):
    model = MODEL_FACTORIES[name]()
    local = model.local
    compiled = local.compiled_generator()
    for i, m in enumerate(random_occupancies(local.num_states, 25, seed=7)):
        t = 0.8 * i  # exercise explicit time dependence where present
        expected = local.generator(m, t)
        np.testing.assert_allclose(
            compiled(m, t), expected, rtol=0.0, atol=TOL
        )


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_batch_matches_scalar(name):
    model = MODEL_FACTORIES[name]()
    local = model.local
    compiled = local.compiled_generator()
    occupancies = random_occupancies(local.num_states, 12, seed=11)
    ts = np.linspace(0.0, 9.0, 12)
    batched = compiled.batch(occupancies, ts)
    assert batched.shape == (12, local.num_states, local.num_states)
    for i in range(12):
        np.testing.assert_allclose(
            batched[i], compiled(occupancies[i], ts[i]), rtol=0.0, atol=TOL
        )
    # Scalar time broadcasts across the batch.
    batched0 = compiled.batch(occupancies, 0.0)
    for i in range(12):
        np.testing.assert_allclose(
            batched0[i], compiled(occupancies[i], 0.0), rtol=0.0, atol=TOL
        )


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_compiled_drift_matches_interpreted(name):
    model = MODEL_FACTORIES[name]()
    oracle = MeanFieldModel(model.local, compiled=False)
    for i, m in enumerate(random_occupancies(model.num_states, 10, seed=3)):
        t = 1.1 * i
        np.testing.assert_allclose(
            model.drift(t, m), oracle.drift(t, m), rtol=0.0, atol=TOL
        )


def test_generator_rows_sum_to_zero_batch():
    model = botnet_model()
    compiled = model.local.compiled_generator()
    occupancies = random_occupancies(model.num_states, 30, seed=5)
    batched = compiled.batch(occupancies)
    np.testing.assert_allclose(
        batched.sum(axis=2), 0.0, rtol=0.0, atol=1e-12
    )


def test_constant_rates_are_folded():
    model = virus_model(SETTING_1)
    compiled = model.local.compiled_generator()
    # Four of the five virus transitions are constants; only the
    # infection rate stays dynamic.
    assert compiled.num_constant == 4
    assert compiled.num_dynamic == 1


def test_declarative_model_uses_compiled_expressions():
    compiled = virus_model_declarative().local.compiled_generator()
    assert compiled.num_compiled == 1


def test_batch_shape_validation():
    compiled = virus_model(SETTING_1).local.compiled_generator()
    with pytest.raises(ModelError):
        compiled.batch(np.ones(3))  # 1-D is rejected; batch wants (B, K)


# ----------------------------------------------------------------------
# Deep local models: one evaluation per rate source
# ----------------------------------------------------------------------

DEEP_FACTORIES = {
    "loadbalance-deep": deep_load_balancing_model,
    "population-301": lambda: population_model(
        PopulationParameters(lam=250.0, capacity=300)
    ),
}


def deep_occupancies(k: int) -> np.ndarray:
    """A geometric queue profile, a bulge mid-chain and a random point."""
    geometric = 0.98 ** np.arange(k)
    bulge = np.exp(-0.5 * ((np.arange(k) - 0.4 * k) / (0.05 * k)) ** 2) + 1e-9
    rows = [geometric, bulge, random_occupancies(k, 1, seed=13)[0]]
    return np.array([r / r.sum() for r in rows])


@pytest.fixture(scope="module", params=sorted(DEEP_FACTORIES))
def deep_model(request):
    model = DEEP_FACTORIES[request.param]()
    assert model.num_states >= DRIFT_ACTION_MIN_K
    return model


def test_deep_call_and_sparse_match_interpreted(deep_model):
    local = deep_model.local
    compiled = local.compiled_generator()
    for i, m in enumerate(deep_occupancies(local.num_states)):
        expected = local.generator(m, 0.5 * i)
        np.testing.assert_allclose(
            compiled(m, 0.5 * i), expected, rtol=0.0, atol=TOL
        )
        np.testing.assert_allclose(
            compiled.sparse(m, 0.5 * i).toarray(), expected, rtol=0.0, atol=TOL
        )


def test_deep_batch_matches_interpreted(deep_model):
    local = deep_model.local
    occupancies = deep_occupancies(local.num_states)[:2]
    batched = local.compiled_generator().batch(occupancies, 0.0)
    for i, m in enumerate(occupancies):
        np.testing.assert_allclose(
            batched[i], local.generator(m, 0.0), rtol=0.0, atol=TOL
        )


def test_deep_transition_rates_match_interpreted(deep_model):
    local = deep_model.local
    occupancies = deep_occupancies(local.num_states)
    rates = local.compiled_generator().transition_rates(occupancies, 0.0)
    expected = np.array(
        [
            [evaluate_rate(tr.rate, m, 0.0) for tr in local.transitions]
            for m in occupancies
        ]
    )
    np.testing.assert_allclose(rates, expected, rtol=0.0, atol=TOL)


def test_deep_drift_matches_interpreted(deep_model):
    oracle = MeanFieldModel(deep_model.local, compiled=False)
    for m in deep_occupancies(deep_model.num_states):
        np.testing.assert_allclose(
            deep_model.drift(0.0, m), oracle.drift(0.0, m), rtol=0.0, atol=TOL
        )


def test_deep_sources_are_shared():
    # Load balancing: every arrival rate reads one family; population:
    # every birth transition shares one callable.  Services/deaths are
    # constants, so one source remains per model.
    for factory in DEEP_FACTORIES.values():
        compiled = factory().local.compiled_generator()
        assert compiled.num_sources == 1
        assert compiled.num_dynamic == compiled.num_states - 1


def _counting_model(family_value):
    """Three states whose two forward rates form one family."""
    calls = []

    def family(m):
        calls.append(1)
        return family_value(m)

    family.vectorized = True

    def member(column):
        def rate(m):
            return family(m)[..., column]

        rate.vectorized = True
        rate.family = family
        rate.family_column = column
        return rate

    local = (
        LocalModelBuilder()
        .state("a")
        .state("b")
        .state("c")
        .transition("a", "b", member(0))
        .transition("b", "c", member(1))
        .transition("c", "a", 1.0)
        .build()
    )
    return local, calls


def test_family_is_evaluated_once_per_assembly():
    local, calls = _counting_model(lambda m: m[..., :2])
    compiled = local.compiled_generator()
    m = np.array([0.5, 0.3, 0.2])
    calls.clear()
    compiled.transition_rates(np.vstack([m, m[::-1]]))
    assert len(calls) == 1
    for assemble in (compiled, compiled.sparse, compiled.drift):
        calls.clear()
        assemble(m, 0.0)
        assert len(calls) == 1
    np.testing.assert_array_equal(compiled(m), local.generator(m))


def test_shared_callable_is_called_once():
    calls = []

    def shared(m):
        calls.append(1)
        return 2.0 * m[..., 0]

    local = (
        LocalModelBuilder()
        .state("a")
        .state("b")
        .state("c")
        .transition("a", "b", shared)
        .transition("b", "c", shared)
        .build()
    )
    compiled = local.compiled_generator()
    assert compiled.num_sources == 1
    m = np.array([0.5, 0.3, 0.2])
    q = compiled(m)
    assert len(calls) == 1
    assert q[0, 1] == q[1, 2] == 1.0


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_family_invalid_value_raises(bad):
    def values(m):
        out = m[..., :2].copy()
        out[..., 1] = bad
        return out

    local, _calls = _counting_model(values)
    compiled = local.compiled_generator()
    m = np.array([0.5, 0.3, 0.2])
    batch = np.vstack([m, m])
    for assemble in (
        lambda: compiled(m),
        lambda: compiled.batch(batch),
        lambda: compiled.transition_rates(batch),
        lambda: compiled.sparse(m),
        lambda: compiled.drift(m),
    ):
        with pytest.raises(InvalidRateError):
            assemble()
    with pytest.raises(InvalidRateError):
        local.generator(m)


# ----------------------------------------------------------------------
# Random expression trees: compile() vs evaluate()
# ----------------------------------------------------------------------

MAX_INDEX = 2


def _leaves():
    return st.one_of(
        st.floats(
            min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
        ).map(Const),
        st.integers(min_value=0, max_value=MAX_INDEX).map(Occupancy),
        st.just(Time()),
    )


def _combine(children):
    binary = st.tuples(
        st.sampled_from(["add", "sub", "mul", "min", "max"]), children, children
    ).map(lambda t: Binary(t[0], t[1], t[2]))
    guarded = st.tuples(children, children).map(
        lambda t: t[0].guarded_div(t[1])
    )
    square = children.map(lambda e: Binary("pow", e, Const(2)))
    return st.one_of(binary, guarded, square)


expressions = st.recursive(_leaves(), _combine, max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(
    expr=expressions,
    weights=st.lists(
        st.floats(min_value=0.01, max_value=1.0),
        min_size=MAX_INDEX + 1,
        max_size=MAX_INDEX + 1,
    ),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_compiled_expression_matches_evaluate(expr, weights, t):
    assert isinstance(expr, Expression)
    m = np.array(weights) / np.sum(weights)
    interpreted = expr(m, t)
    compiled = expr.compile()
    value = float(compiled(m, t))
    assert abs(value - interpreted) <= TOL * max(1.0, abs(interpreted))
    # The same closure evaluates a batch; row 0 must agree with scalar.
    batch = np.vstack([m, m[::-1]])
    batch_values = np.broadcast_to(
        np.asarray(compiled(batch, t), dtype=float), (2,)
    )
    assert abs(batch_values[0] - interpreted) <= TOL * max(1.0, abs(interpreted))
