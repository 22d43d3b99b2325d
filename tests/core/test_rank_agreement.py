"""The rank rule on logits judges every ci capture like softmax top-k sets.

The engine decides ``F_t`` by counting the signatures that score
strictly higher than the observed one under the previous step's logits
(:func:`~repro.nn.losses.top_k_hits`).  It used to take the softmax of
those logits and test membership in :func:`~repro.nn.losses.top_k_sets`
of the probabilities.  The two differ only where scores tie at the
``k``-th place.  On every scenario's ci test capture, at one-row ticks
and at mixed tick shapes, in float32 and in float64, this module
computes the old rule from the very logits the engine ranked and
demands the same verdict and level on every row; a row where they
differ is reported with the tie that caused it.  It also resumes
checkpoints whose predictions hold probabilities, as every checkpoint
written before the rank rule does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stream_engine import LEVEL_NONE, LEVEL_PACKAGE, LEVEL_TIMESERIES
from repro.experiments.pipeline import run_pipeline
from repro.nn.activations import softmax
from repro.nn.losses import score_ranks, top_k_hits, top_k_sets
from repro.persistence import load_checkpoint
from repro.scenarios import scenario_names
from repro.utils.artifact import save_artifact
from tests.core.test_exactness import SCHEDULE


@pytest.fixture(scope="module", params=scenario_names())
def ci_run(request):
    result = run_pipeline(f"ci@{request.param}")
    return result.detector, result.dataset.test_packages


class Judge:
    """The old rule on the logits each stream's next package is ranked by."""

    def __init__(self, detector, streams):
        self.k = detector.k
        self.flagged, self.ids = [], []
        for packages in streams:
            codes = detector.discretizer.transform_sequence(packages)
            flagged, ids = detector.package_detector.resolve_batch(codes)
            self.flagged.append(flagged)
            self.ids.append(ids)
        self.judged = 0
        self.disagreements: list[str] = []

    def verdict(self, stream, position, logits):
        """``(anomalous, level)`` under softmax + ``top_k_sets`` membership."""
        if self.flagged[stream][position]:
            return True, LEVEL_PACKAGE
        if logits is None:  # a stream's first package is not judged
            return False, LEVEL_NONE
        identifier = int(self.ids[stream][position])
        if identifier < 0:
            return True, LEVEL_TIMESERIES
        self.judged += 1
        probs = softmax(logits)
        missed = identifier not in top_k_sets(probs[None, :], self.k)[0]
        if top_k_hits(probs, identifier, self.k) != top_k_hits(logits, identifier, self.k):
            self.report(stream, position, identifier, logits, "probabilities rank")
        return missed, LEVEL_TIMESERIES if missed else LEVEL_NONE

    def compare(self, stream, position, logits, got):
        want = self.verdict(stream, position, logits)
        if got != want:
            self.report(
                stream, position, int(self.ids[stream][position]), logits,
                f"engine {got} vs softmax top-k sets {want}",
            )

    def report(self, stream, position, identifier, logits, what):
        where = f"stream {stream} package {position}: {what}"
        if logits is None or identifier < 0:
            self.disagreements.append(f"{where}; signature {identifier}, unranked")
            return
        probs = softmax(logits)
        ties = np.flatnonzero(probs == probs[identifier]).tolist()
        self.disagreements.append(
            f"{where}; signature {identifier} ranks "
            f"{score_ranks(logits, identifier)} by logits and "
            f"{score_ranks(probs, identifier)} by probabilities (k={self.k}); "
            f"classes tied with it in probability: {ties}"
        )


def scores_before(engine, stream_id):
    """The logits a stream's next package is ranked by, ``None`` before
    its first package."""
    row = engine.snapshot(stream_id)
    return row.last_probs[0] if row.has_probs[0] else None


def check_one_row_ticks(detector, capture):
    judge = Judge(detector, [capture])
    engine = detector.engine(1)
    stream_id = engine.stream_ids[0]
    for position, package in enumerate(capture):
        logits = scores_before(engine, stream_id)
        verdicts, levels = engine.observe_batch([package])
        judge.compare(0, position, logits, (bool(verdicts[0]), int(levels[0])))
    return judge


def check_mixed_ticks(detector, capture):
    third = len(capture) // 3
    streams = [capture[i * third : (i + 1) * third] for i in range(3)]
    judge = Judge(detector, streams)
    engine = detector.engine(3)
    ids = engine.stream_ids
    cursor = [0, 0, 0]
    tick = 0
    while True:
        rows = SCHEDULE[tick % len(SCHEDULE)]
        if any(cursor[row] >= third for row in rows):
            break
        before = [scores_before(engine, ids[row]) for row in rows]
        verdicts, levels = engine.observe_batch(
            {ids[row]: streams[row][cursor[row]] for row in rows}
        )
        for row, logits, verdict, level in zip(rows, before, verdicts, levels):
            judge.compare(row, cursor[row], logits, (bool(verdict), int(level)))
            cursor[row] += 1
        tick += 1
    assert tick > 100
    return judge


class TestSoftmaxTopKAgreement:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_ticks(self, ci_run, weights_as, dtype):
        detector, capture = ci_run
        judge = check_one_row_ticks(weights_as(detector, dtype), capture)
        assert judge.disagreements == []
        assert judge.judged > len(capture) // 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_tick_shapes(self, ci_run, weights_as, dtype):
        detector, capture = ci_run
        judge = check_mixed_ticks(weights_as(detector, dtype), capture)
        assert judge.disagreements == []
        assert judge.judged > len(capture) // 4


class TestProbabilityCheckpoints:
    """A checkpoint written before the rank rule holds the softmax of the
    same logits; resuming from it judges like the run that never stopped."""

    def test_resume_from_probabilities(self, ci_run, tmp_path):
        detector, capture = ci_run
        uninterrupted = detector.engine(1)
        want = uninterrupted.observe_stream(uninterrupted.stream_ids[0], capture)
        for cut in (1, len(capture) // 3, len(capture) // 2, len(capture) - 1):
            engine = detector.engine(1)
            stream_id = engine.stream_ids[0]
            engine.observe_stream(stream_id, capture[:cut])
            state = engine.state_dict()
            streams = state["streams"]
            streams["last_probs"] = softmax(streams["last_probs"], axis=-1)
            path = tmp_path / f"before-{cut}.npz"
            save_artifact(
                {"detector": detector.state_dict(), "engine": state},
                path,
                kind="stream-checkpoint",
            )
            resumed = load_checkpoint(path, detector=detector)
            got = resumed.observe_stream(stream_id, capture[cut:])
            assert np.array_equal(got[0], want[0][cut:]), cut
            assert np.array_equal(got[1], want[1][cut:]), cut
            mine = resumed.state_dict()["streams"]
            theirs = uninterrupted.state_dict()["streams"]
            for layer in theirs["lstm"]:
                for part in ("h", "c"):
                    assert (
                        mine["lstm"][layer][part].tobytes()
                        == theirs["lstm"][layer][part].tobytes()
                    )
            assert mine["last_probs"].tobytes() == theirs["last_probs"].tobytes()
