"""Unit tests for the DVB workload, synthetic generators, and TFG IO."""

import pytest

from repro.errors import TFGError
from repro.tfg import dvb_tfg, random_layered_tfg
from repro.tfg.dvb import (
    LOWLEVEL_OPS,
    SIZE_A,
    SIZE_C,
    SIZE_I,
    STAGE_OPS,
)
from repro.tfg.synth import chain_tfg, fan_tfg


class TestDVB:
    def test_counts_scale_with_models(self):
        for n in (1, 3, 5, 8, 16):
            tfg = dvb_tfg(n)
            assert tfg.num_tasks == 5 + 3 * n
            assert tfg.num_messages == 4 + 5 * n
            tfg.validate()

    def test_single_input_single_output(self):
        tfg = dvb_tfg(5)
        assert [t.name for t in tfg.input_tasks] == ["lowlevel"]
        assert [t.name for t in tfg.output_tasks] == ["decide"]

    def test_figure_constants(self):
        tfg = dvb_tfg(3)
        assert tfg.task("lowlevel").ops == LOWLEVEL_OPS == 1925.0
        assert tfg.task("match0").ops == STAGE_OPS == 400.0
        assert tfg.message("a").size_bytes == SIZE_A == 192.0
        assert tfg.message("c0").size_bytes == SIZE_C == 3200.0
        assert tfg.message("i").size_bytes == SIZE_I == 384.0

    def test_largest_message_is_candidate_set(self):
        tfg = dvb_tfg(4)
        assert max(m.size_bytes for m in tfg.messages) == 3200.0

    def test_model_pipelines_are_parallel(self):
        tfg = dvb_tfg(3)
        assert not tfg.precedes("match0", "match1")
        assert tfg.precedes("match0", "decide")
        assert tfg.precedes("lowlevel", "probe2")

    def test_skip_edges_present(self):
        tfg = dvb_tfg(2)
        # g_k: match -> verify skip edge; i: fuse -> decide skip edge.
        assert tfg.message("g0").src == "match0"
        assert tfg.message("g0").dst == "verify"
        assert tfg.message("i").src == "fuse"
        assert tfg.message("i").dst == "decide"

    def test_rejects_zero_models(self):
        with pytest.raises(TFGError):
            dvb_tfg(0)

    def test_fits_64_nodes_up_to_19_models(self):
        assert dvb_tfg(19).num_tasks == 62
        assert dvb_tfg(20).num_tasks == 65  # would not fit one-per-node


class TestSynth:
    def test_reproducible_per_seed(self):
        a = random_layered_tfg(seed=11)
        b = random_layered_tfg(seed=11)
        assert (a.tasks, a.messages) == (b.tasks, b.messages)
        c = random_layered_tfg(seed=12)
        assert (a.tasks, a.messages) != (c.tasks, c.messages)

    def test_every_interior_task_connected(self):
        tfg = random_layered_tfg(seed=3, layers=5, width=4, edge_probability=0.2)
        inputs = {t.name for t in tfg.input_tasks}
        outputs = {t.name for t in tfg.output_tasks}
        for task in tfg.tasks:
            if task.name not in inputs:
                assert tfg.messages_in(task.name)
            if task.name not in outputs:
                assert tfg.messages_out(task.name)

    def test_layer_structure(self):
        tfg = random_layered_tfg(seed=5, layers=3, width=2)
        assert tfg.num_tasks == 6
        # Edges only go to the next layer: t0_* -> t1_* -> t2_*.
        for message in tfg.messages:
            src_layer = int(message.src.split("_")[0][1:])
            dst_layer = int(message.dst.split("_")[0][1:])
            assert dst_layer == src_layer + 1

    def test_parameter_validation(self):
        with pytest.raises(TFGError):
            random_layered_tfg(seed=0, layers=1)
        with pytest.raises(TFGError):
            random_layered_tfg(seed=0, width=0)
        with pytest.raises(TFGError):
            random_layered_tfg(seed=0, edge_probability=1.5)

    def test_chain(self):
        tfg = chain_tfg(4)
        assert tfg.num_tasks == 4
        assert tfg.num_messages == 3
        assert tfg.precedes("t0", "t3")

    def test_chain_single_task(self):
        tfg = chain_tfg(1)
        assert tfg.num_messages == 0
        tfg.validate()

    def test_fan(self):
        tfg = fan_tfg(3)
        assert tfg.num_tasks == 5
        assert tfg.num_messages == 6
        assert {t.name for t in tfg.input_tasks} == {"src"}
        assert {t.name for t in tfg.output_tasks} == {"sink"}

    def test_fan_validation(self):
        with pytest.raises(TFGError):
            fan_tfg(0)
