"""Unit tests for the synthetic workload substrate."""

import collections
import hashlib

import numpy as np
import pytest

from repro.experiments.common import SHARD_LENGTH
from repro.isa import OpClass
from repro.workloads import (
    BehaviorSpec,
    PhaseSpec,
    SPEC_APP_NAMES,
    application_spec,
    generate_trace,
    input_variant,
    optimization_variant,
    spec2006_suite,
)
from repro.workloads import generator
from repro.workloads.behaviors import MIX_KEYS


#: sha256 of ``Trace.data`` per SPEC-like application, keyed by ``(seed,
#: n_instructions)``; the 8- and 40-shard traces use ``SHARD_LENGTH``
#: shards, 12345 the default shard length.  They pin the RNG draw order
#: and the LRU-stack semantics, whatever bookkeeping implements them.
GOLDEN_TRACE_DIGESTS = {
    (2012, 8 * SHARD_LENGTH): {
        "astar": "d1bac05b25cf1e88fbb81ac89de4cb951d351bc49ddf57714a0161c0d5e33198",
        "bwaves": "41aa09fcfc652266d2d059f1a1612a9aea94ed93dd3775f6244662ba420f83d8",
        "bzip2": "65f6d104fa9380ad045383ad56761285b847c8e5fd96037fc661227ac0bfc421",
        "gemsFDTD": "8a40af7196e553e4cb3f495206238fa77e0246752e5f64a947c819863d4ddb38",
        "hmmer": "8af764f2b0d44d3c57b4b6dbf9e0748ea94353bc4db7470c9516898e20e57316",
        "omnetpp": "c1c09ade658af6d42f300d1e5c2e0cbe3052aae211aed6f060fbdf3706fc05f5",
        "sjeng": "025f52aa6e64511a95724a74cf44bc165bc23a879dfd365e65a522352d400695",
    },
    (2012, 40 * SHARD_LENGTH): {
        "astar": "a16f78cb3fdb99a209ce0038788693b9c7135c8b8c2f3d2beb3fe67a38e03760",
        "bwaves": "25df1389de5348d2dd129e3dcac70ec09c61eec9ab608f6cb17ae5fd7e42b267",
        "bzip2": "ec863f3a7e239bbbf1a9a6b9c175711c9a35fd2b50463ef54cf8d1a4fbe38652",
        "gemsFDTD": "5992c80b6a34f8d40cfa8883cbcf0ad80dd65641b2514af022fd8241b26ea25f",
        "hmmer": "1d9e3c18b0c9246ad1609caea45960b95828f5d82a3e5c036ce23cda58834e7e",
        "omnetpp": "c2a897ecb48ca63e7a7efef801cd1a96e1a700fea513fd2f1ac6bfd3d8fc9554",
        "sjeng": "05a53e5364430141d6c7e76403c15505dfbf10f6292ccc4abdbce8ca6e815337",
    },
    (2012, 12345): {
        "astar": "5d85cdeae5663cbac5a447eb0a72ed37c7bc1e8d87db6ba00c3b97e4aea7c015",
        "bwaves": "8929dae0d2309cebc0255b15b8344cace8a1e88a71f962474e61370946c7b14b",
        "bzip2": "99bb946f8a1c03dc220b20c90fa591e04d7a8f293374ca8d2b9300505b9d5261",
        "gemsFDTD": "26bd6dc5fc9104fb3e374b477dbf7f5822ab7b66d8aaccb16167c9603c10d323",
        "hmmer": "dbcdb78d6b16754da8548b2c961c17b462d643e60a236d7db4345a196ee52306",
        "omnetpp": "d8bb1c6acdccbba55bfac4a42c173b91e32453db07229580f129c7557562e105",
        "sjeng": "bb7ec56b14e55563f6518961a8347fca2890b6b4fd4e9097a4bac658d584dd96",
    },
    (1, 8 * SHARD_LENGTH): {
        "astar": "086ce51e6833322ca665c7d28a40f8a97e02360fb826ce1b5aed7c6edde61631",
        "bwaves": "a257b04114451860f706a16fc1db593ded20642542386c03330e284062311345",
        "bzip2": "f4dcbd8b6f7a73eaac3263cb82242528b562e364d46aed3edbc4c846759dc1d5",
        "gemsFDTD": "53ea66651df7ea18f6a542e25db0ef0d551cff7fbea1466f6c8621b545e2bf1c",
        "hmmer": "c213c7c7c2556da5baa9fef41d5988ca8ce0bf60082d46492ebd83a2db0dee2a",
        "omnetpp": "5796d436155b638ec4685650e81a44b00332716e1e1f230fd8447c440c53b34e",
        "sjeng": "14e5f77c3f43374376c4b701decf48efec2c2234abb225a33a298f5a294589d2",
    },
    (1, 40 * SHARD_LENGTH): {
        "astar": "02efdec587d78f20adf701743101fefe3625705557b861ff541d7d636e4f05d1",
        "bwaves": "a0706a8bd4a2c49d2b91b505cfe45bff3e1f63640c020417e32c9c274da3ccbe",
        "bzip2": "6361cd9e86bae84b04dc91934473a5638124241dad88424633c9fdefd6d5cc61",
        "gemsFDTD": "64d7e93c32ad1fb1421b0b2f4df47809fa3862df205dd87863d359d9d66754b1",
        "hmmer": "3c7d86ad4d369be8d547aebf6541ca35805a36056e6e4cc6c12569c6f9a4452c",
        "omnetpp": "3ccbc5bc89cee9a6ae19b5590c81ff2ee57f4871bf228dd9f5ea31273839fba8",
        "sjeng": "bafac66aac0ed85b470dbd49d7d1d85c5dc30e4ad0f75bcfca75766d32d96852",
    },
    (1, 12345): {
        "astar": "fcd15e95266ef6a364bf643394f444a3487630257f5c0216711549e670b8759a",
        "bwaves": "59e9d20215eab38e3fb86bcaa755e380ad59d72505644a55ddf018e59b2b8197",
        "bzip2": "a7e01461eb762982d258a5d853518e8d75f56afb734aca87c4663813dc25806b",
        "gemsFDTD": "ee64cd236d31a978227f8d99f33abb7df6f09c91b8be8f790b8ede4fd06a1257",
        "hmmer": "9b49b32b59b0872ab2a68b2cb99a640198267d49982b2017c82c47b8a9d23e4e",
        "omnetpp": "aa256f6a0d9ba9ff25ca8a03f547592077cea74fecd1e7d4cea2566bd154fdbe",
        "sjeng": "dcd80705cd71884d51da70d4f1e194d36a1bfd803fe7fe0fa28b2e982cc658ae",
    },
}


def simple_phase(**overrides):
    params = dict(
        mix={"control": 0.1, "int_alu": 0.5, "memory": 0.4},
        taken_rate=0.5,
    )
    params.update(overrides)
    return PhaseSpec(**params)


class TestPhaseSpec:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PhaseSpec(mix={"control": 0.5, "int_alu": 0.4})

    def test_unknown_mix_key_rejected(self):
        with pytest.raises(ValueError, match="unknown mix keys"):
            PhaseSpec(mix={"control": 0.5, "vector": 0.5})

    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            simple_phase(taken_rate=1.5)
        with pytest.raises(ValueError):
            simple_phase(mispredict_rate=-0.1)

    def test_dep_mean_bounded(self):
        with pytest.raises(ValueError):
            simple_phase(dep_mean=0.5)

    def test_recurrence_interval_non_negative(self):
        with pytest.raises(ValueError):
            simple_phase(recurrence_interval=-1)

    def test_mix_vector_ordered_and_normalized(self):
        phase = simple_phase()
        vec = phase.mix_vector()
        assert len(vec) == len(MIX_KEYS)
        assert vec.sum() == pytest.approx(1.0)
        assert vec[int(OpClass.INT_ALU)] == pytest.approx(0.5)

    def test_perturbed_is_valid_and_different(self):
        rng = np.random.default_rng(0)
        base = simple_phase()
        jittered = base.perturbed(rng, 0.2)
        assert jittered.mix != base.mix
        assert sum(jittered.mix.values()) == pytest.approx(1.0)
        assert 0 <= jittered.taken_rate <= 1

    def test_perturbed_zero_scale_near_identity(self):
        rng = np.random.default_rng(0)
        base = simple_phase()
        jittered = base.perturbed(rng, 1e-9)
        assert jittered.taken_rate == pytest.approx(base.taken_rate, rel=1e-6)


class TestBehaviorSpec:
    def test_needs_phases(self):
        with pytest.raises(ValueError):
            BehaviorSpec("empty", [])

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            BehaviorSpec("bad", [(simple_phase(), 0.0)])

    def test_phase_weights_normalized(self):
        spec = BehaviorSpec("s", [(simple_phase(), 2.0), (simple_phase(), 6.0)])
        assert spec.phase_weights().tolist() == [0.25, 0.75]

    def test_schedule_respects_weights(self):
        spec = BehaviorSpec("s", [(simple_phase(), 1.0), (simple_phase(), 3.0)])
        schedule = spec.phase_schedule(100)
        assert schedule.count(1) == pytest.approx(75, abs=2)

    def test_schedule_interleaves(self):
        spec = BehaviorSpec("s", [(simple_phase(), 1.0), (simple_phase(), 1.0)])
        schedule = spec.phase_schedule(10)
        # Alternating, not A A A A A B B B B B.
        assert schedule[:4] != [0, 0, 0, 0]


class TestGenerator:
    def test_deterministic(self):
        spec = application_spec("astar")
        a = generate_trace(spec, 5_000, seed=9)
        b = generate_trace(spec, 5_000, seed=9)
        assert (a.data == b.data).all()

    def test_seed_changes_trace(self):
        spec = application_spec("astar")
        a = generate_trace(spec, 5_000, seed=9)
        b = generate_trace(spec, 5_000, seed=10)
        assert not (a.data == b.data).all()

    def test_exact_length(self):
        spec = application_spec("hmmer")
        assert len(generate_trace(spec, 7_777, seed=1)) == 7_777

    def test_mix_approximates_spec(self):
        spec = BehaviorSpec("m", [(simple_phase(), 1.0)])
        trace = generate_trace(spec, 30_000, seed=2)
        counts = trace.opclass_counts()
        assert counts[OpClass.INT_ALU] / len(trace) == pytest.approx(0.5, abs=0.03)
        assert counts[OpClass.MEMORY] / len(trace) == pytest.approx(0.4, abs=0.03)

    def test_taken_rate_approximated(self):
        spec = BehaviorSpec("t", [(simple_phase(taken_rate=0.9), 1.0)])
        trace = generate_trace(spec, 30_000, seed=2)
        control = trace.control_mask()
        assert trace.taken[control].mean() == pytest.approx(0.9, abs=0.05)

    def test_memory_ops_have_addresses(self):
        spec = application_spec("astar")
        trace = generate_trace(spec, 5_000, seed=1)
        mem = trace.memory_mask()
        assert (trace.addr[mem] > 0).all()
        assert (trace.addr[~mem] == 0).all()

    def test_streaming_produces_sequential_addresses(self):
        phase = simple_phase(stream_rate=0.9, new_block_rate=0.0)
        trace = generate_trace(BehaviorSpec("s", [(phase, 1.0)]), 10_000, seed=4)
        addrs = trace.addr[trace.memory_mask()]
        deltas = np.diff(addrs)
        assert (deltas == 8).mean() > 0.5  # mostly unit-stride

    def test_recurrence_interval_sets_deps(self):
        phase = simple_phase(recurrence_interval=5)
        spec = BehaviorSpec("r", [(phase, 1.0)])
        # A single phase segment covers the trace (shard_length * phase_run
        # >= n), so the chain indices are globally aligned.
        trace = generate_trace(spec, 1_000, seed=4, shard_length=1_000)
        assert (trace.dep[5::5] == 5).all()

    def test_instruction_addresses_within_regions(self):
        spec = application_spec("hmmer")
        trace = generate_trace(spec, 5_000, seed=1)
        assert (trace.iaddr >= 0).all()

    def test_small_code_footprint_reuses_blocks(self):
        tight = simple_phase(code_blocks=4, far_jump_rate=0.0)
        trace = generate_trace(BehaviorSpec("i", [(tight, 1.0)]), 5_000, seed=5)
        blocks = np.unique(trace.iaddr >> 6)
        assert len(blocks) <= 8

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(application_spec("astar"), 0)

    @pytest.mark.parametrize("seed,n", list(GOLDEN_TRACE_DIGESTS))
    def test_golden_digests(self, seed, n):
        shard_length = SHARD_LENGTH if n % SHARD_LENGTH == 0 else None
        suite = spec2006_suite()
        digests = {
            app: hashlib.sha256(
                generate_trace(suite[app], n, seed=seed, shard_length=shard_length)
                .data.tobytes()
            ).hexdigest()
            for app in SPEC_APP_NAMES
        }
        assert digests == GOLDEN_TRACE_DIGESTS[seed, n]

    def test_occurrence_counts_mirror_the_stack(self):
        # Streams run past the next fresh block id, so blocks repeat in the
        # stack; enough new blocks overflow MAX_STACK and truncate it.
        phase = simple_phase(stream_rate=0.05, new_block_rate=0.9)
        state = generator._AddressState()
        rng = np.random.default_rng(7)
        for n_accesses in (500, 2 * generator.MAX_STACK, 1_000):
            generator._generate_data_addresses(phase, n_accesses, rng, state)
            assert state.counts == collections.Counter(state.stack)
        assert len(state.stack) == generator.MAX_STACK
        assert len(set(state.stack)) < len(state.stack)


class TestSuite:
    def test_seven_applications(self):
        suite = spec2006_suite()
        assert tuple(suite) == SPEC_APP_NAMES
        assert len(suite) == 7

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            application_spec("gcc")

    def test_bwaves_is_fp_heavy_outlier(self):
        trace_b = generate_trace(application_spec("bwaves"), 20_000, seed=1)
        trace_s = generate_trace(application_spec("sjeng"), 20_000, seed=1)
        fp = lambda t: (
            t.opclass_counts()[OpClass.FP_ALU] + t.opclass_counts()[OpClass.FP_MULDIV]
        ) / len(t)
        assert fp(trace_b) > 3 * fp(trace_s)

    def test_bwaves_high_taken_rate(self):
        trace = generate_trace(application_spec("bwaves"), 20_000, seed=1)
        control = trace.control_mask()
        assert trace.taken[control].mean() > 0.7

    def test_optimization_variant_changes_memory_mix(self):
        base = application_spec("bzip2")
        o1 = optimization_variant(base, "-O1")
        o3 = optimization_variant(base, "-O3")
        mem = lambda s: s.phases[0][0].mix["memory"]
        assert mem(o1) > mem(base) > mem(o3)

    def test_optimization_variant_names(self):
        assert optimization_variant(application_spec("astar"), "-O1").name == "astar-O1"

    def test_optimization_variant_validates_level(self):
        with pytest.raises(ValueError):
            optimization_variant(application_spec("astar"), "-O2")

    def test_input_variant_changes_weights(self):
        base = application_spec("astar")
        v = input_variant(base, "-v2")
        assert v.name == "astar-v2"
        assert not np.allclose(v.phase_weights(), base.phase_weights())

    def test_input_variant_validates_set(self):
        with pytest.raises(ValueError):
            input_variant(application_spec("astar"), "-v9")

    def test_variants_are_deterministic(self):
        a = optimization_variant(application_spec("astar"), "-O1")
        b = optimization_variant(application_spec("astar"), "-O1")
        assert a.phases[0][0].mix == b.phases[0][0].mix


class TestRandomBehaviorSpec:
    def test_valid_and_named(self):
        from repro.workloads import random_behavior_spec

        rng = np.random.default_rng(1)
        spec = random_behavior_spec(rng, name="cover00")
        assert spec.name == "cover00"
        assert len(spec.phases) == 1
        assert sum(spec.phases[0][0].mix.values()) == pytest.approx(1.0)

    def test_generates_traces(self):
        from repro.workloads import random_behavior_spec

        rng = np.random.default_rng(2)
        spec = random_behavior_spec(rng)
        trace = generate_trace(spec, 3_000, seed=1)
        assert len(trace) == 3_000

    def test_diverse_across_draws(self):
        from repro.workloads import random_behavior_spec

        rng = np.random.default_rng(3)
        mixes = [random_behavior_spec(rng).phases[0][0].mix["memory"] for _ in range(8)]
        assert max(mixes) - min(mixes) > 0.05
