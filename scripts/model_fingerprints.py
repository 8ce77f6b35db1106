"""Print fingerprints of the deep predictors' numbers at fixed seeds.

Every nn optimization in this repo must leave training and inference
bit-identical.  This script runs the ``table4`` experiment at perfbench's
size and prints its RMSEs in float hex, then trains Prism5G and the LSTM
baseline as perfbench's ``online_abr`` trains Prism5G and prints the
SHA-256 of the float64 bytes of their forecasts on held-out traces:
Prism5G batch-1 (one window per call, every window of every session)
and batched, and the LSTM baseline one-row and batched on one trace (one
row is where numpy's matmul takes GEMV).  Run it against two trees and
diff the output; ``PYTHONPATH`` picks the tree whose ``repro`` runs::

    PYTHONPATH=src python scripts/model_fingerprints.py > after.txt
    PYTHONPATH=../base/src python scripts/model_fingerprints.py > before.txt
    diff before.txt after.txt

Both runs must share a machine: BLAS kernels and numpy's SIMD
transcendentals may round differently on another CPU.  A run takes
about 2 s of CPU; the experiment's run directory is temporary.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from typing import Iterator, Tuple

import numpy as np

from repro import pipeline
from repro.apps.bridge import trace_windows_normalized
from repro.core.predictors import DeepConfig, LSTMPredictor, Prism5GPredictor
from repro.data.datasets import SubDatasetSpec, build_subdataset, generate_traces
from repro.data.splits import random_split

SEED = 0
SPEC = SubDatasetSpec("OpZ", "driving", "long")
#: perfbench's full sizes: ``table4`` and the ``online_abr`` sessions
TRACES, SAMPLES, HIDDEN, EPOCHS = 4, 200, 24, 6
HELDOUT_TRACES, HELDOUT_SAMPLES = 3, 300


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def table4_rmses() -> Iterator[Tuple[str, str]]:
    config = pipeline.ExperimentConfig(
        name="table4",
        operator=SPEC.operator,
        mobility=SPEC.mobility,
        timescale=SPEC.timescale,
        n_traces=TRACES,
        samples_per_trace=SAMPLES,
        predictors=("LSTM", "Prism5G"),
        split="random",
        seed=SEED,
        deep=DeepConfig(hidden=HIDDEN, max_epochs=EPOCHS, patience=EPOCHS, seed=SEED),
    )
    with tempfile.TemporaryDirectory(prefix="model-fp-") as tmp:
        result = pipeline.run_experiment(config, out_dir=tmp)
    for name, rmse in result.rmse.items():
        yield f"table4_rmse[{name}]", float(rmse).hex()


def forecasts() -> Iterator[Tuple[str, str]]:
    dataset = build_subdataset(SPEC, n_traces=TRACES, samples_per_trace=SAMPLES, seed=SEED, cache=None)
    train, val, _ = random_split(dataset.windows, seed=SEED)
    config = DeepConfig(hidden=HIDDEN, max_epochs=EPOCHS, patience=EPOCHS, seed=SEED)
    prism, lstm = Prism5GPredictor(config), LSTMPredictor(config)
    prism.fit(train, val)
    lstm.fit(train, val)
    # another trace seed, so training never saw these traces
    heldout = generate_traces(
        SPEC, n_traces=HELDOUT_TRACES, samples_per_trace=HELDOUT_SAMPLES, seed=SEED + 1, cache=None
    )
    sessions = [trace_windows_normalized(trace, dataset) for trace in heldout]
    one = [prism.predict(w.subset(np.array([i]))) for w in sessions for i in range(len(w))]
    yield "prism5g_batch1", _sha256(one)
    yield "prism5g_batched", _sha256(prism.predict(w) for w in sessions)
    windows = sessions[0]
    yield "lstm_one_row", _sha256(lstm.predict(windows.subset(np.array([i]))) for i in range(len(windows)))
    yield "lstm_batched", _sha256([lstm.predict(windows)])


def main() -> int:
    for name, value in (*table4_rmses(), *forecasts()):
        print(f"{name} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
