"""Peak memory, measured with tracemalloc (numpy reports its array buffers
to it): a similarity instance costs about its matrix, no temporary of the
dense paths grows with n times the batch size, and the graph-cut value of a
set costs about the stored entries of its rows."""

import tracemalloc

import numpy as np
import pytest

from submax.bench import load_similarity_csv
from submax.objectives import BLOCK, CUT, FACILITY, FacilityDiversityState, cut_value, gen_synthetic

# Bytes of the few BLOCK-entry float64 temporaries a blocked pass may hold at once.
SLACK = 4 * 8 * BLOCK


def peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generated_similarity_matrix_is_built_in_place():
    inst, peak = peak_bytes(gen_synthetic, FACILITY, 1000, np.random.default_rng(1))
    assert peak <= 1.2 * inst.data.nbytes + SLACK


@pytest.mark.parametrize("drop", ["none", "scalar", "aligned"])
def test_gain_many_over_every_id_stays_within_blocks(drop):
    n = 2000
    state = FacilityDiversityState(gen_synthetic(FACILITY, n, np.random.default_rng(2)), depth=4)
    state.reset([3, 7, 11])
    us = np.arange(n)
    d = {"none": None, "scalar": 7, "aligned": np.full(n, 7)}[drop]
    _, peak = peak_bytes(state.gain_many, us, d)
    # A full-width gather alone would be n * n * 8 = 32 MB.
    assert peak <= SLACK + 64 * n


def test_similarity_csv_is_parsed_into_one_array(tmp_path):
    m = np.random.default_rng(3).random((500, 500))
    path = tmp_path / "m.csv"
    np.savetxt(path, m + m.T, delimiter=",", fmt="%.17g")
    inst, peak = peak_bytes(load_similarity_csv, path)
    assert peak <= 2 * inst.data.nbytes


def test_cut_value_reads_only_the_rows_of_the_set():
    n = 5000
    inst = gen_synthetic(CUT, n, np.random.default_rng(4), density=0.004)
    ids = np.random.default_rng(5).choice(n, 1000, replace=False).tolist()
    w = inst.data
    stored = int((w.indptr[np.array(ids) + 1] - w.indptr[ids]).sum())
    _, peak = peak_bytes(cut_value, inst, ids)
    # Densified rows alone would be 1000 * n * 8 = 40 MB; the set's rows
    # store about 20,000 entries.
    assert peak <= 64 * (stored + len(ids))
