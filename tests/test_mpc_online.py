"""The MPC online phase against its naive oracle (``tests/oracles``).

The engine caches the committee's opening matrix, shares through a
precomputed power table, batches independent Beaver products into one round
and holds a value as one y-vector in party order where the oracle holds a
``Share`` object per party. None of that may be observable except in
``rounds``: y-values, opened values, the RNG stream and every other counter
must match the scalar, uncached reference — on aborted runs too — and every
inconsistent share must still abort.
"""

import random
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import shamir
from repro.crypto.field import MERSENNE_61, MERSENNE_127, PrimeField
from repro.crypto.vsr import redistribute_vector
from repro.mpc.beaver import OfflineDealer
from repro.mpc.engine import CheatingDetected, MPCEngine, SecretValue

from .conftest import share_values
from .oracles.mpc_reference import ReferenceEngine, ReferenceValue

#: (field, value bit width): the 61-bit field only fits 16-bit values under
#: 40 bits of statistical masking.
FIELDS = {
    "m127": (PrimeField(MERSENNE_127), 24),
    "m61": (PrimeField(MERSENNE_61), 16),
}


#: (n, t): the benchmark's committees, and t > 1 for the coefficient-major
#: sharing kernel (one x^k column per coefficient).
COMMITTEES = [(3, 1), (4, 1), (5, 2), (7, 2), (7, 3)]


@st.composite
def committees(draw):
    n, t = draw(st.sampled_from(COMMITTEES))
    return n, t, draw(st.sampled_from(sorted(FIELDS)))


def build_pair(n, t, field_name, seed):
    field, bit_width = FIELDS[field_name]
    new = MPCEngine(n, field=field, threshold=t, rng=random.Random(seed), bit_width=bit_width)
    ref = ReferenceEngine(n, field=field, threshold=t, rng=random.Random(seed), bit_width=bit_width)
    return new, ref


def ys(value):
    """A value's y-values in party order, whichever engine's handle it is."""
    if isinstance(value, ReferenceValue):
        return value.ys(sorted(value.shares))
    return value.ys


def assert_in_lockstep(new, ref):
    """Same RNG position, same counters bar ``rounds`` (which only falls)."""
    assert new.rng.getstate() == ref.rng.getstate()
    got, want = asdict(new.counters), asdict(ref.counters)
    assert got.pop("rounds") <= want.pop("rounds")
    assert got == want


class TestDifferential:
    @given(
        committee=committees(),
        seed=st.integers(min_value=0, max_value=2**32),
        values=st.lists(
            st.integers(min_value=-(2**14), max_value=2**14), min_size=2, max_size=4
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_program_matches_reference(self, committee, seed, values):
        new, ref = build_pair(*committee, seed)
        outs = []
        for engine in (new, ref):
            secrets = [engine.input_value(v) for v in values]
            a, b = secrets[0], secrets[1]
            product = engine.mul(a, b)
            if engine is new:
                pair = engine.mul_many([(a, product), (b, b)])
            else:
                pair = [engine.mul(a, product), engine.mul(b, b)]
            bit = engine.less_than(a, b)
            chosen = engine.select(bit, a, b)
            index = engine.argmax(secrets)
            stages = [*secrets, product, *pair, bit, chosen, index]
            opened = [engine.open(v) for v in (product, bit, chosen, index)]
            opened.append(engine.open_unsigned(pair[1]))
            outs.append(([ys(v) for v in stages], opened))
        assert outs[0] == outs[1]
        assert outs[0][1][:2] == [values[0] * values[1], int(values[0] < values[1])]
        assert_in_lockstep(new, ref)

    @given(
        committee=committees(),
        seed=st.integers(min_value=0, max_value=2**32),
        bit_length=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_public_bits_circuit_matches_reference(self, committee, seed, bit_length, data):
        """Every public bit pattern the masked opening can leave."""
        public = data.draw(st.integers(min_value=0, max_value=(1 << bit_length) - 1))
        new, ref = build_pair(*committee, seed)
        eda = new.dealer.edabit(bit_length, bit_length)
        value, bits = ref.dealer.edabit(bit_length, bit_length)
        assert (ys(ref._wrap(value)), [ys(ref._wrap(b)) for b in bits]) == eda
        got = new._bitwise_public_less_than(public, eda[1])
        want = ref.bitwise_public_less_than(public, bits)
        assert ys(got) == ys(want)
        assert_in_lockstep(new, ref)
        assert new.counters.triples_consumed == bit_length - 1
        r = ref.open_unsigned(ref._wrap(value))
        assert new.open(got) == ref.open(want) == int(public < r)

    @given(committee=committees(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_dealer_sharings_match_share_secret(self, committee, seed):
        new, ref = build_pair(*committee, seed)
        for _ in range(3):
            triple, want = new.dealer.triple(), ref.dealer.triple()
            assert triple == tuple(ys(ref._wrap(sharing)) for sharing in want)
        want = ref._wrap(ref.dealer.share(new.field.encode_signed(-5)))
        assert ys(new.noise(-5)) == ys(want)
        batch = new.input_values([7, -2, 0])
        assert [ys(v) for v in batch] == [ys(ref.input_value(v)) for v in (7, -2, 0)]
        assert_in_lockstep(new, ref)


class TestRounds:
    def test_mul_many_is_one_round(self):
        e = MPCEngine(5, rng=random.Random(3), bit_width=24)
        pairs = [(e.input_value(i), e.input_value(i + 1)) for i in range(4)]
        before = e.counters.snapshot()
        products = e.mul_many(pairs)
        assert [e.open(p) for p in products] == [0, 2, 6, 12]
        assert e.counters.rounds - before.rounds == 1 + 4  # + the four opens
        assert e.counters.openings - before.openings == 8 + 4
        assert e.counters.triples_consumed - before.triples_consumed == 4
        assert e.counters.multiplications - before.multiplications == 4

    def test_every_product_is_one_public_mul_call(self, monkeypatch):
        """The benchmark's trace wraps ``MPCEngine.mul`` from outside and
        reads its call count as the number of products."""
        calls = []
        original = MPCEngine.mul
        monkeypatch.setattr(
            MPCEngine, "mul", lambda *args: calls.append(1) or original(*args)
        )
        e = MPCEngine(4, rng=random.Random(2), bit_width=24)
        values = [e.input_value(v) for v in (3, -8, 5)]
        e.mul_many([(values[0], values[1]), (values[1], values[2])])
        e.select(e.less_than(values[0], values[2]), values[0], values[2])
        e.argmax(values)
        assert len(calls) == e.counters.multiplications > 0

    def test_mul_is_the_single_product_case(self):
        a, b = MPCEngine(3, rng=random.Random(9)), MPCEngine(3, rng=random.Random(9))
        x = (a.input_value(6), a.input_value(7))
        y = (b.input_value(6), b.input_value(7))
        assert ys(a.mul(*x)) == ys(b.mul_many([y])[0])
        assert a.counters == b.counters

    @pytest.mark.parametrize("bit_width", [16, 24, 47])
    def test_comparison_takes_one_round_per_bit_level(self, bit_width):
        """k rounds: the masked opening, then one product for each of the
        mask's k shared bits but the top one, whose prefix is public."""
        new = MPCEngine(4, rng=random.Random(5), bit_width=bit_width)
        ref = ReferenceEngine(4, rng=random.Random(5), bit_width=bit_width)
        for engine in (new, ref):
            engine.less_than(engine.input_value(-3), engine.input_value(11))
        assert new.counters.rounds == ref.counters.rounds == bit_width
        assert new.counters.multiplications == ref.counters.multiplications == bit_width - 1

    def test_argmax_step_selects_in_one_round(self):
        e = MPCEngine(4, rng=random.Random(5), bit_width=24)
        e.argmax([e.input_value(v) for v in (4, 9, 2)])
        assert e.counters.rounds == 2 * (24 + 1)

    def test_round_hook_fires_at_every_round_boundary(self):
        e = MPCEngine(5, rng=random.Random(8), bit_width=24)
        fired = []
        e.round_hook = lambda: fired.append(e.counters.rounds)
        values = [e.input_value(v) for v in (7, -2, 5)]
        e.open(e.mul_many([(values[0], values[1]), (values[1], values[2])])[1])
        e.open(e.argmax(values))
        # Called once per round, before the round is counted.
        assert fired == list(range(e.counters.rounds))


def party_matrix():
    """(n, t, corrupted party): every quorum and non-quorum position."""
    return [(n, t, pid) for n, t in ((3, 1), (4, 1), (5, 2), (7, 2)) for pid in range(1, n + 1)]


class TestCheatingMatrix:
    """A single corrupted share aborts whichever opening it reaches, naming
    the party the scalar reference names (the corrupted one when it is outside
    the quorum, else the first party the corrupted quorum mispredicts), and
    the aborted run has metered exactly what the reference would have."""

    @pytest.fixture(params=party_matrix(), ids=lambda c: "n{}t{}p{}".format(*c))
    def case(self, request):
        n, t, pid = request.param
        engines = build_pair(n, t, "m127", n * 31 + pid)
        return pid, [(e, e.input_value(12), e.input_value(-7)) for e in engines]

    @staticmethod
    def abort(engine, program):
        with pytest.raises(CheatingDetected) as caught:
            program(engine)
        return str(caught.value)

    @staticmethod
    def assert_same_culprit(pid, engine, messages):
        assert len(set(messages)) == 1
        culprit = pid if pid > engine.threshold + 1 else engine.threshold + 2
        assert messages[0] == f"party {culprit} submitted an inconsistent share"

    def test_open(self, case):
        pid, runs = case
        messages = []
        for e, a, _ in runs:
            e.corrupt_share(a, pid, delta=5)
            before = e.counters.snapshot()
            messages.append(self.abort(e, lambda e: e.open(a)))
            assert e.counters == before  # nothing was opened, nothing is metered
        assert_in_lockstep(runs[0][0], runs[1][0])
        self.assert_same_culprit(pid, runs[0][0], messages)

    def test_mul_many_d_opening(self, case):
        pid, ((new, a, b), (ref, ra, rb)) = case
        new.corrupt_share(a, pid)
        ref.corrupt_share(ra, pid)
        messages = [
            self.abort(new, lambda e: e.mul_many([(b, b), (a, b)])),
            self.abort(ref, lambda e: [e.mul(rb, rb), e.mul(ra, rb)]),
        ]
        assert_in_lockstep(new, ref)
        assert new.counters.openings == 2 and new.counters.triples_consumed == 2
        self.assert_same_culprit(pid, new, messages)

    def test_mul_many_e_opening(self, case):
        pid, ((new, a, b), (ref, ra, rb)) = case
        new.corrupt_share(b, pid)
        ref.corrupt_share(rb, pid)
        messages = [
            self.abort(new, lambda e: e.mul_many([(a, a), (a, b)])),
            self.abort(ref, lambda e: [e.mul(ra, ra), e.mul(ra, rb)]),
        ]
        assert_in_lockstep(new, ref)
        assert new.counters.openings == 3  # the second product's d went out
        self.assert_same_culprit(pid, new, messages)

    def test_less_than(self, case):
        pid, runs = case
        messages = []
        for e, a, b in runs:
            e.corrupt_share(a, pid)
            messages.append(self.abort(e, lambda e: e.less_than(a, b)))
        assert_in_lockstep(runs[0][0], runs[1][0])
        self.assert_same_culprit(pid, runs[0][0], messages)

    def test_honest_run_opens(self, case):
        _, ((e, a, b), _) = case
        assert e.open(e.mul_many([(a, b)])[0]) == -84
        assert e.open(e.less_than(b, a)) == 1


class TestConstruction:
    def test_engine_ids_unique_across_threads(self):
        """Ids were a read-then-increment on a class attribute; two engines
        racing through it could share one and pass each other's
        ownership check."""
        ids, errors = [], []
        start = threading.Barrier(8)

        def build():
            try:
                start.wait(timeout=10)
                mine = [MPCEngine(3, rng=random.Random(0))._id for _ in range(300)]
                ids.extend(mine)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(ids) == 8 * 300 and len(set(ids)) == len(ids)

    def test_dealer_validates_the_party_set_once(self, field):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="n >= 2t\\+1"):
            OfflineDealer(field, [1, 2, 3, 4], 2, rng)
        with pytest.raises(ValueError, match="distinct"):
            OfflineDealer(field, [1, 2, 2], 1, rng)
        with pytest.raises(ValueError, match="reserved"):
            OfflineDealer(field, [0, 1, 2], 1, rng)
        with pytest.raises(ValueError, match="non-negative"):
            OfflineDealer(field, [1, 2, 3], -1, rng)


class TestLagrangeCache:
    def test_callers_get_their_own_list(self, field):
        first = shamir.lagrange_coefficients_at_zero([1, 2, 3], field)
        first[0] = 0
        assert shamir.lagrange_coefficients_at_zero([1, 2, 3], field)[0] != 0

    def test_weights_are_per_modulus_and_point(self, field, small_field):
        xs = (2, 5, 9)
        at_zero = shamir.lagrange_weights(field.modulus, xs)
        assert at_zero != shamir.lagrange_weights(small_field.modulus, xs)
        assert sum(at_zero) % field.modulus == 1
        # Interpolating the basis at one of its own points picks that point.
        assert shamir.lagrange_weights(field.modulus, xs, 5) == (0, 1, 0)
        with pytest.raises(ValueError):
            shamir.lagrange_weights(field.modulus, (1, 1, 2))

    def test_reconstruction_and_vsr_share_the_cache(self, field, rng):
        party_ids = [11, 12, 13, 14, 15]
        shares = share_values(list(range(6)), 2, party_ids, field, rng)
        rows = [[shares[pid][i] for pid in party_ids] for i in range(6)]
        shamir.lagrange_weights.cache_clear()
        assert [shamir.reconstruct_secret(row, field) for row in rows] == list(range(6))
        ys = {pid: [s.y for s in vector] for pid, vector in shares.items()}
        moved = redistribute_vector(ys, 2, 1, [21, 22, 23], field, rng)
        # One computation per distinct point set: the five parties (the other
        # five reconstructions hit), and the three-dealer quorum, whose
        # weights one hand-off fetches once.
        info = shamir.lagrange_weights.cache_info()
        assert (info.misses, info.hits) == (2, 5)
        new_rows = [[shamir.Share(pid, moved[pid][i]) for pid in (21, 22, 23)] for i in range(6)]
        assert [shamir.reconstruct_secret(row, field) for row in new_rows] == list(range(6))


class TestVectorBoundary:
    """Values cross between engines as one y-column per party id. The old
    per-value ``Dict[int, Share]`` entrance compared its keys with the party
    ids but never a ``Share.x`` with its key, so shares filed under each
    other's ids were adopted and the later opening blamed an honest party;
    a column has no second label to disagree with."""

    @pytest.fixture
    def engines(self):
        return (
            MPCEngine(4, rng=random.Random(1), bit_width=24),
            MPCEngine(4, rng=random.Random(2), bit_width=24),
        )

    def test_round_trip_keeps_the_y_values_and_changes_the_owner(self, engines):
        sender, recipient = engines
        values = sender.input_values([5, -9, 0])
        columns = sender.export_columns(values)
        assert list(columns) == sender.party_ids
        assert all(len(column) == 3 for column in columns.values())
        adopted = recipient.input_columns(columns)
        assert [v.ys for v in adopted] == [v.ys for v in values]
        assert [recipient.open(v) for v in adopted] == [5, -9, 0]
        with pytest.raises(ValueError, match="different committee"):
            sender.open(adopted[0])
        assert sender.export_columns([]) == {pid: [] for pid in sender.party_ids}
        assert recipient.input_columns({pid: [] for pid in recipient.party_ids}) == []

    def test_adopted_values_do_not_alias_the_columns(self, engines):
        sender, recipient = engines
        columns = sender.export_columns(sender.input_values([5, 6]))
        adopted = recipient.input_columns(columns)
        before = [list(v.ys) for v in adopted]
        columns[2][0] += 1
        assert [v.ys for v in adopted] == before

    @pytest.mark.parametrize(
        "damage",
        [
            lambda columns: columns.pop(3),
            lambda columns: columns.update({5: list(columns[1])}),
            lambda columns: columns.update({9: columns.pop(2)}),
            lambda columns: columns[4].pop(),
            lambda columns: columns[1].append(0),
        ],
        ids=["missing-party", "extra-party", "wrong-party", "short-column", "long-column"],
    )
    def test_malformed_columns_are_refused_before_anything_is_adopted(self, engines, damage):
        sender, recipient = engines
        columns = sender.export_columns(sender.input_values([5, -9, 0]))
        damage(columns)
        before = recipient.counters.snapshot()
        with pytest.raises(ValueError):
            recipient.input_columns(columns)
        assert recipient.counters == before

    def test_values_of_another_engine_are_not_handed_out(self, engines):
        sender, recipient = engines
        mine, theirs = sender.input_value(1), recipient.input_value(2)
        with pytest.raises(ValueError, match="different committee"):
            sender.export_columns([mine, theirs])
        with pytest.raises(ValueError, match="at least one share"):
            SecretValue([], sender._id)


class TestAliasing:
    """Handles may share a y-list with each other and with the dealer (no
    operation writes into one), so the one writer — ``corrupt_share`` — must
    replace the list it changes."""

    @pytest.fixture
    def engine(self):
        return MPCEngine(5, rng=random.Random(4), bit_width=24)

    @staticmethod
    def corrupt_and_compare(engine, handle, others, lists):
        """Corrupt ``handle``; ``others`` (handles) and ``lists`` stay as they were."""
        kept = [list(other.ys) for other in others], [list(ys) for ys in lists]
        before = list(handle.ys)
        engine.corrupt_share(handle, party_id=2, delta=3)
        after = list(before)
        after[1] = (after[1] + 3) % engine.field.modulus
        assert handle.ys == after
        assert ([other.ys for other in others], [list(ys) for ys in lists]) == kept
        with pytest.raises(CheatingDetected):
            engine.open(handle)

    def test_edabit_bit(self, engine):
        _, bits = engine.dealer.edabit(3, 3)
        first, second = (SecretValue(bits[0], engine._id) for _ in range(2))
        self.corrupt_and_compare(engine, first, [second], bits)
        assert second.ys is bits[0]

    def test_triple_share(self, engine):
        triple = engine.dealer.triple()
        handle, twin = (SecretValue(triple[2], engine._id) for _ in range(2))
        self.corrupt_and_compare(engine, handle, [twin], triple)

    def test_constant(self, engine):
        one, other = engine.constant(1), engine.constant(1)
        alias = SecretValue(one.ys, engine._id)
        self.corrupt_and_compare(engine, one, [other, alias], [])
        assert engine.open(other) == engine.open(alias) == 1

    def test_noise(self, engine):
        noise = engine.noise(-5)
        alias = SecretValue(noise.ys, engine._id)
        self.corrupt_and_compare(engine, noise, [alias], [])
        assert engine.open(alias) == -5

    def test_no_operation_writes_into_its_operands(self, engine):
        a, b = engine.input_values([6, -7])
        bit = engine.less_than(a, b)
        operands = [a, b, bit]
        lists = [v.ys for v in operands]
        kept = [list(ys) for ys in lists]
        engine.add(a, b), engine.sub(a, b), engine.add_public(a, 3), engine.mul_public(b, -2)
        engine.mul(a, b), engine.mul_many([(a, b), (bit, a)]), engine.select(bit, a, b)
        engine.less_than(b, a), engine.argmax([a, b]), engine.maximum([b, a])
        engine.sum_values(operands), engine.open(a), engine.export_columns(operands)
        assert all(v.ys is ys for v, ys in zip(operands, lists))
        assert lists == kept
