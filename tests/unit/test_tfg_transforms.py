"""Unit tests for TFG transformations."""

import pytest

from repro.errors import TFGError
from repro.tfg.synth import chain_tfg, fan_tfg
from repro.tfg.transforms import merge_linear_chains, merge_tasks


class TestMergeTasks:
    def test_basic_fusion(self, tiny_tfg):
        merged = merge_tasks(tiny_tfg, "t0", "t1")
        assert merged.num_tasks == 2
        assert merged.task("t0").ops == 800.0
        # m0 (t0 -> t1) became internal and vanished.
        assert {m.name for m in merged.messages} == {"m1"}
        assert merged.message("m1").src == "t0"

    def test_custom_name(self, tiny_tfg):
        merged = merge_tasks(tiny_tfg, "t0", "t1", merged_name="fused")
        assert merged.task("fused").ops == 800.0
        assert merged.message("m1").src == "fused"

    def test_original_untouched(self, tiny_tfg):
        merge_tasks(tiny_tfg, "t0", "t1")
        assert tiny_tfg.num_tasks == 3
        assert tiny_tfg.num_messages == 2

    def test_cycle_creation_rejected(self, diamond_tfg):
        # Fusing the source and sink of the diamond wraps the two middle
        # branches into a cycle.
        with pytest.raises(TFGError, match="cycle"):
            merge_tasks(diamond_tfg, "s", "t")

    def test_self_merge_rejected(self, tiny_tfg):
        with pytest.raises(TFGError):
            merge_tasks(tiny_tfg, "t0", "t0")

    def test_parallel_branch_merge_ok(self, diamond_tfg):
        merged = merge_tasks(diamond_tfg, "m1", "m2", merged_name="mid")
        assert merged.num_tasks == 3
        assert len(merged.messages_in("mid")) == 2
        assert len(merged.messages_out("mid")) == 2


class TestMergeLinearChains:
    def test_chain_collapses_to_one_task(self):
        tfg = chain_tfg(5, ops=100, size_bytes=256)
        merged = merge_linear_chains(tfg)
        assert merged.num_tasks == 1
        assert merged.num_messages == 0
        assert merged.tasks[0].ops == 500.0

    def test_fan_preserves_parallelism(self):
        tfg = fan_tfg(3, ops=100, size_bytes=256)
        merged = merge_linear_chains(tfg)
        # src and sink have fan > 1; middles have single in AND single
        # out, so each middle fuses into src... but src has 3 successors,
        # so the chain condition fails at src: nothing fuses.
        assert merged.num_tasks == tfg.num_tasks

    def test_dvb_coarsening_removes_per_model_chains(self, dvb5):
        merged = merge_linear_chains(dvb5)
        # pose_k -> probe_k is a pure chain link (pose: 1 out, probe: 1
        # in): the d_k messages disappear; so does 'a' (lowlevel ->
        # extract).  c_k survive because match_k also feeds verify.
        names = {m.name for m in merged.messages}
        assert not any(n.startswith("d") for n in names)
        assert "a" not in names
        assert any(n.startswith("c") for n in names)
        # One fusion per model chain plus the lowlevel+extract fusion.
        assert merged.num_tasks == dvb5.num_tasks - 6
        merged.validate()

    def test_total_ops_conserved(self, dvb5):
        merged = merge_linear_chains(dvb5)
        assert sum(t.ops for t in merged.tasks) == pytest.approx(
            sum(t.ops for t in dvb5.tasks)
        )
