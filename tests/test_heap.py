"""The C heap that a call frees stays in the process for the next call.

Importing ``siggate`` sets glibc's mmap and trim thresholds, so the
temporaries that one gradient-check cell frees are the memory the next call
reuses, not fresh pages the kernel faults in again. The test runs in a fresh
interpreter, whose allocator no other test has touched."""

import os

import pytest

from test_cold_start import run_fresh

GLIBC = ("CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
         and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"))


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's; other C libraries keep theirs")
def test_a_gradient_check_cell_reuses_the_heap_it_freed(tmp_path):
    run_fresh("""
        import resource
        from siggate import attention, gps, numeric, synthexp, training

        # perfbench's gradcheck cell: d 16, 4 heads, 2 layers, 6 nodes, 2 coordinates an array
        task = synthexp.make_toy_task(0, n_graphs=2, nodes_per_graph=6, feature_dim=4)
        model = gps.init_model(numeric.SeededRng(0), d_in=4, d=16, n_heads=4, n_layers=2,
                               gate=attention.GateConfig(placement="g1"))
        params = training.ParamSet.from_model(model)

        def check():
            training.finite_difference_check(model, params, task.train[:1], sample=2)

        check()  # the warm-up call grows the heap
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            check()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults) <= 100, f"minor faults per call after the first: {faults}"
        assert numeric._HEAP_KEPT == (1, 1), f"mallopt returned {numeric._HEAP_KEPT}"
    """, tmp_path)
