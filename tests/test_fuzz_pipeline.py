"""Pipeline fuzzing: randomly generated well-formed queries must flow
through parse -> simplify -> certify -> lower -> plan without crashing,
and their certificates must be sensible.

The generator builds queries from the grammar the certifier accepts:
an aggregation, a chain of linear transforms (with optional clip/abs),
and a mechanism release. Hypothesis shrinks any failure to a minimal
program, which makes planner bugs found here unusually easy to debug.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse
from repro.planner.search import plan_query
from repro.privacy.certify import certify
from tests.conftest import small_env
from tests.oracles.reference_interp import one_hot_database, run_reference

CATEGORIES = 8


@st.composite
def linear_statements(draw):
    """A block of statements computing sensitive linear values."""
    statements = []
    n = draw(st.integers(min_value=0, max_value=3))
    vars_available = ["aggr[0]", "aggr[1]", "aggr[2]"]
    for i in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        a = draw(st.sampled_from(vars_available))
        b = draw(st.sampled_from(vars_available))
        k = draw(st.integers(min_value=1, max_value=4))
        name = f"t{i}"
        if kind == 0:
            statements.append(f"{name} = {a} + {b};")
        elif kind == 1:
            statements.append(f"{name} = {a} * {k};")
        elif kind == 2:
            statements.append(f"{name} = abs({a} - {b});")
        else:
            statements.append(f"{name} = clip({a}, 0, N);")
        vars_available.append(name)
    return statements, vars_available


@st.composite
def queries(draw):
    body, vars_available = draw(linear_statements())
    release = draw(st.integers(min_value=0, max_value=1))
    target = draw(st.sampled_from(vars_available))
    lines = ["aggr = sum(db);"] + body
    if release == 0:
        # Over-scale the noise by the worst-case sensitivity so every
        # generated combination certifies within a bounded epsilon.
        lines.append(f"r = laplace({target}, 64 * sens / epsilon);")
    else:
        lines.append("r = em(aggr);")
    lines.append("output(r);")
    return "\n".join(lines)


@given(source=queries())
@settings(max_examples=40, deadline=None)
def test_generated_queries_plan(source):
    env = small_env(num_participants=10**6, categories=CATEGORIES)
    result = plan_query(source, env, name="fuzz")
    assert result.succeeded
    cert = result.certificate
    assert 0 < cert.epsilon < 64
    assert math.isfinite(result.plan.cost.participant_expected_seconds)


@given(source=queries())
@settings(max_examples=25, deadline=None)
def test_generated_queries_run_centrally(source):
    import random

    db = one_hot_database([i % CATEGORIES for i in range(24)], CATEGORIES)
    outputs = run_reference(
        source, db, epsilon=2.0, sensitivity=1.0, rng=random.Random(0)
    )
    assert len(outputs) == 1


@given(source=queries())
@settings(max_examples=25, deadline=None)
def test_certified_epsilon_stable_under_simplification(source):
    from repro.lang.simplify import simplify

    env = small_env(num_participants=10**6, categories=CATEGORIES)
    program = parse(source)
    original = certify(program, env)
    simplified = certify(simplify(program), env)
    assert simplified.epsilon == pytest.approx(original.epsilon)
