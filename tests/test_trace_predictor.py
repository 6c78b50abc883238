"""Unit tests for the hybrid path-based trace predictor."""

from hypothesis import given, settings, strategies as st

from repro.trace.predictor import TracePredictor, TracePredictorConfig
from repro.trace.trace_id import TraceId


def tid(n, outcomes=()):
    return TraceId(0x1000 + 4 * n, tuple(outcomes))


class TestTracePredictorLearning:
    def test_untrained_predicts_none(self):
        assert TracePredictor().predict() is None

    def test_learns_repeating_sequence(self):
        pred = TracePredictor()
        sequence = [tid(0), tid(1), tid(2)]
        # Two warmup laps, then predictions must be perfect.
        for _ in range(2):
            for t in sequence:
                pred.predict()
                pred.update(t)
        correct = 0
        for _ in range(3):
            for t in sequence:
                if pred.predict() == t:
                    correct += 1
                pred.update(t)
        assert correct == 9

    def test_learns_path_correlated_pattern(self):
        """A follows B or C depending on deeper history — the correlated
        table must disambiguate what the simple table cannot."""
        pred = TracePredictor()
        # Pattern: X A B | Y A C | repeat.  After trace A, the next trace
        # depends on what preceded A.
        pattern = [tid(10), tid(1), tid(2), tid(11), tid(1), tid(3)]
        for _ in range(8):
            for t in pattern:
                pred.predict()
                pred.update(t)
        correct = 0
        for _ in range(2):
            for t in pattern:
                if pred.predict() == t:
                    correct += 1
                pred.update(t)
        assert correct == 12

    def test_counter_guards_replacement(self):
        """An established prediction survives a single contrary outcome."""
        pred = TracePredictor(TracePredictorConfig(index_bits=8))
        for _ in range(4):
            pred.predict()
            pred.update(tid(1))  # history [.. 1], predict after 1 -> 1
        assert pred.predict() == tid(1)
        pred.update(tid(2))  # single contrary update (history was [1 1 ..])
        # Re-establish the same history context: after a string of 1s the
        # prediction should still favour 1 (counter absorbed one hit).
        for _ in range(2):
            pred.update(tid(1))
        assert pred.predict() == tid(1)

    def test_statistics_counters(self):
        pred = TracePredictor()
        pred.predict()
        assert pred.lookups == 1


class TestRecoverySupport:
    def test_history_snapshot_restore(self):
        pred = TracePredictor()
        for n in range(5):
            pred.update(tid(n))
        snap = pred.history_snapshot()
        pred.update(tid(99))
        pred.restore_history(snap)
        assert pred.history_snapshot() == snap

    def test_restored_history_drives_prediction(self):
        pred = TracePredictor()
        sequence = [tid(0), tid(1), tid(2), tid(3)]
        for _ in range(6):
            for t in sequence:
                pred.update(t)
        snap = pred.history_snapshot()
        prediction_before = pred.predict()
        # Wander off, then restore: prediction must match.
        for n in range(20, 24):
            pred.update(tid(n))
        pred.restore_history(snap)
        assert pred.predict() == prediction_before


class _ReferencePredictor:
    """The predictor with both indices recomputed from the full history
    at every lookup and update (the original, uncached formulation)."""

    def __init__(self, config):
        self.config = config
        self.history = []
        self.correlated = {}
        self.simple = {}

    def indices(self):
        index_bits = self.config.index_bits
        mask = (1 << index_bits) - 1
        acc = 0
        for age, t in enumerate(reversed(self.history)):
            keep_bits = max(index_bits - 2 * age, 4)
            acc ^= (t.mix() & ((1 << keep_bits) - 1)) << (age & 0x3)
        simple = self.history[-1].mix() & mask if self.history else 0
        return acc & mask, simple

    def lookup(self):
        correlated, simple = self.indices()
        entry = self.correlated.get(correlated)
        if entry is not None and entry[0] is not None and entry[1] > 0:
            return entry[0], tuple(entry)
        entry = self.simple.get(simple)
        if entry is not None and entry[0] is not None:
            return entry[0], tuple(entry)
        return None, None

    def _train(self, table, index, actual):
        entry = table.setdefault(index, [None, 0])
        if entry[0] == actual:
            entry[1] = min(entry[1] + 1, self.config.counter_max)
        else:
            entry[1] -= 1
            if entry[1] <= 0 or entry[0] is None:
                entry[:] = [actual, 0]
        return tuple(entry)

    def update(self, actual):
        correlated, simple = self.indices()
        trained = (self._train(self.correlated, correlated, actual),
                   self._train(self.simple, simple, actual))
        self.history = (self.history + [actual])[-self.config.path_depth:]
        return trained

    def restore_history(self, snapshot):
        self.history = list(snapshot)[-self.config.path_depth:]


_TIDS = st.builds(
    TraceId,
    st.sampled_from([0x1000, 0x1004, 0x2040]),
    st.lists(st.booleans(), max_size=3).map(tuple),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), _TIDS),
        st.tuples(st.just("lookup"), st.none()),
        st.tuples(st.just("restore"), st.lists(_TIDS, max_size=10)),
    ),
    max_size=60,
)


class TestCachedIndices:
    """Indices cached per history change select the same entries as
    indices recomputed from the history at every access."""

    @given(st.sampled_from([4, 8, 16]), st.sampled_from([1, 3, 8]), _OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_recomputed_indices(self, index_bits, path_depth, ops):
        config = TracePredictorConfig(index_bits=index_bits,
                                      path_depth=path_depth)
        pred = TracePredictor(config)
        ref = _ReferencePredictor(config)
        for op, arg in ops:
            if op == "update":
                entries = pred.update(arg)
                assert ([(e.trace_id, e.counter) for e in entries]
                        == list(ref.update(arg)))
            elif op == "restore":
                # Empty, shorter than, and longer than the path depth.
                pred.restore_history(arg)
                ref.restore_history(arg)
            else:
                lookup = pred.lookup()
                want_tid, want_entry = ref.lookup()
                assert lookup.trace_id == want_tid
                got_entry = (None if lookup.entry is None else
                             (lookup.entry.trace_id, lookup.entry.counter))
                assert got_entry == want_entry
            assert pred.history_snapshot() == ref.history
            # Behaviour alone cannot tell two alias-free index functions
            # apart, so the cached indices are checked directly too.
            assert ((pred._correlated_index, pred._simple_index)
                    == ref.indices())
