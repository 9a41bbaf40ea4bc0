"""Plan-vs-engine equivalence: the compiled fast path must reproduce the
legacy per-step-masking path and a from-scratch forward pass.

Parametrised over dtype (float32/float64), pruning on/off and model
family (conv with batch norm, plain MLP); every combination steps
through several subnet levels and checks the logits three ways:

* compiled vs legacy stepped logits (same dtype, same path shape);
* compiled stepped logits vs a from-scratch ``network.forward`` of the
  target subnet (the ground truth the paper's reuse guarantee promises);
* exact MAC accounting (plan-cached counts equal the network's).

The trimmed-width kernel is pinned by two more invariants: the MACs a
step executes (read off the packed slab shapes) equal the subnet MAC
delta on level-sorted networks, and the batched step stays bit-equal
to the solo one across BLAS blocking boundaries.
"""

import copy

import numpy as np
import pytest

from repro.baselines.common import set_prefix_assignments
from repro.core import IncrementalInference, NetworkPlan, SteppingNetwork
from repro.core.pruning import apply_unstructured_pruning
from repro.models import lenet_3c1l, mlp, tiny_cnn
from repro.nn.tensor import no_grad
from repro.serving.backend import RecomputeBackend, SteppingBackend

TOLERANCES = {
    np.dtype(np.float64): dict(rtol=1e-9, atol=1e-10),
    np.dtype(np.float32): dict(rtol=2e-3, atol=1e-4),
}


def _conv_network():
    """Conv net with batch norm, scattered assignment and warm BN stats."""
    spec = tiny_cnn(num_classes=4, input_shape=(3, 12, 12), width_scale=0.5)
    network = SteppingNetwork(spec.expand(1.5), num_subnets=4, rng=np.random.default_rng(0))
    scatter_rng = np.random.default_rng(7)
    for block in network.parametric_blocks():
        if block.is_output:
            continue
        assignment = scatter_rng.integers(0, 5, size=block.layer.assignment.num_units)
        assignment[0] = 0
        block.layer.assignment.set_assignment(assignment)
    network.assignment.validate()
    # Move the BN running statistics off their init values so folding is
    # exercised against non-trivial means/variances.
    warm = np.random.default_rng(1).standard_normal((8, 3, 12, 12))
    network.train()
    network.forward(warm, subnet=3)
    network.eval()
    return network, np.random.default_rng(2).standard_normal((6, 3, 12, 12))


def _mlp_network():
    spec = mlp(num_classes=4, input_dim=16, hidden=(12, 8))
    network = SteppingNetwork(spec, num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    return network, np.random.default_rng(3).standard_normal((5, 16))


def _avg_pool_tanh_network():
    """Exotic block mix: tanh, average pooling with overlapping windows
    (kernel != stride, exercising the generic pooling fallback) and a
    batch-normalised hidden linear layer."""
    from repro.models.spec import (
        ArchitectureSpec,
        ConvSpec,
        FlattenSpec,
        LinearSpec,
        PoolSpec,
    )

    spec = ArchitectureSpec(
        "avg-tanh",
        (3, 12, 12),
        4,
        (
            ConvSpec(8, kernel_size=3, padding=1, activation="tanh"),
            PoolSpec("avg", 3, stride=2),
            ConvSpec(12, kernel_size=3, padding=1, activation="relu"),
            PoolSpec("max", 2),
            FlattenSpec(),
            LinearSpec(10, batch_norm=True, activation="tanh"),
            LinearSpec(4, activation="none", is_output=True),
        ),
    )
    network = SteppingNetwork(spec, num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    warm = np.random.default_rng(4).standard_normal((8, 3, 12, 12))
    network.train()
    network.forward(warm, subnet=3)
    network.eval()
    return network, np.random.default_rng(5).standard_normal((5, 3, 12, 12))


def _lenet_network():
    """LeNet-3C1L as the serving layer builds it: expanded 1.5x, nested
    quarter-width prefix assignments (its third conv reads K = 648 of
    864 columns at level 2)."""
    spec = lenet_3c1l(num_classes=10, input_shape=(3, 32, 32))
    network = SteppingNetwork(spec.expand(1.5), num_subnets=4, rng=np.random.default_rng(0))
    set_prefix_assignments(network, [0.25, 0.5, 0.75, 1.0])
    network.assignment.validate()
    network.eval()
    return network, np.random.default_rng(8).standard_normal((8, 3, 32, 32))


def _sorted_conv_network():
    """The conv fixture (batch norm, warm statistics) re-assigned level-sorted."""
    network, inputs = _conv_network()
    set_prefix_assignments(network, [0.3, 0.55, 0.8, 1.0])
    network.assignment.validate()
    return network, inputs


MODELS = {"conv": _conv_network, "mlp": _mlp_network, "avg_tanh": _avg_pool_tanh_network}


@pytest.fixture(params=sorted(MODELS))
def model(request):
    network, inputs = MODELS[request.param]()
    return network, inputs


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("prune", [False, True])
class TestPlanEquivalence:
    @pytest.mark.parametrize("path", [(0, 1, 2, 3), (0, 2), (1, 3), (3,)])
    def test_compiled_matches_legacy_and_forward(self, model, dtype, prune, path):
        network, inputs = model
        if prune:
            apply_unstructured_pruning(network, 3e-2)
        tol = TOLERANCES[np.dtype(dtype)]
        compiled = IncrementalInference(network, apply_prune=prune, dtype=dtype)
        legacy = IncrementalInference(network, apply_prune=prune, dtype=dtype, compiled=False)
        got = compiled.run(inputs, subnet=path[0])
        want = legacy.run(inputs, subnet=path[0])
        np.testing.assert_allclose(got.logits, want.logits, **tol)
        for level in path[1:]:
            got = compiled.step_to(level)
            want = legacy.step_to(level)
            np.testing.assert_allclose(got.logits, want.logits, **tol)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=path[-1], apply_prune=prune).data
        np.testing.assert_allclose(got.logits, direct, **tol)

    def test_mac_accounting_matches_network(self, model, dtype, prune):
        network, inputs = model
        if prune:
            apply_unstructured_pruning(network, 3e-2)
        compiled = IncrementalInference(network, apply_prune=prune, dtype=dtype)
        compiled.run(inputs, subnet=0)
        result = compiled.step_to(2)
        expected_to = network.subnet_macs(2, apply_prune=prune)
        expected_from = network.subnet_macs(0, apply_prune=prune)
        assert result.cumulative_macs == expected_to
        assert result.macs_executed == expected_to - expected_from
        assert result.macs_reused == expected_from


class TestPlanObject:
    def test_subnet_macs_precomputed(self):
        network, _ = _conv_network()
        plan = NetworkPlan(network, apply_prune=True, dtype=np.float32)
        assert plan.subnet_macs == tuple(
            network.subnet_macs(level) for level in range(network.num_subnets)
        )

    def test_for_network_shares_one_plan_per_platform(self):
        network, _ = _conv_network()
        a = NetworkPlan.for_network(network, dtype=np.float32)
        b = NetworkPlan.for_network(network, dtype=np.float32)
        other_dtype = NetworkPlan.for_network(network, dtype=np.float64)
        other_prune = NetworkPlan.for_network(network, dtype=np.float32, apply_prune=False)
        assert a is b
        assert other_dtype is not a and other_prune is not a

    def test_for_network_refresh_recompiles(self):
        network, _ = _conv_network()
        stale = NetworkPlan.for_network(network, dtype=np.float32)
        fresh = NetworkPlan.for_network(network, dtype=np.float32, refresh=True)
        assert fresh is not stale
        assert NetworkPlan.for_network(network, dtype=np.float32) is fresh

    def test_backends_share_the_platform_plan(self):
        network, _ = _conv_network()
        stepping = SteppingBackend(network)
        recompute = RecomputeBackend(network)
        assert stepping.plan is recompute.plan
        assert stepping._engine.plan is stepping.plan

    def test_plan_dtype_mismatch_rejected(self):
        network, _ = _conv_network()
        plan = NetworkPlan(network, dtype=np.float32)
        with pytest.raises(ValueError):
            IncrementalInference(network, dtype=np.float64, plan=plan)

    def test_plan_network_mismatch_rejected(self):
        network_a, _ = _conv_network()
        network_b, _ = _conv_network()
        plan = NetworkPlan(network_a, dtype=np.float64)
        with pytest.raises(ValueError, match="different network"):
            IncrementalInference(network_b, dtype=np.float64, plan=plan)

    def test_refresh_plan_picks_up_mutations(self):
        network, inputs = _conv_network()
        engine = IncrementalInference(network, dtype=np.float64)
        before = engine.run(inputs, subnet=3).logits.copy()
        network.param_layers[0].prune_mask[:, :, 0, 0] = 0.0
        engine.refresh_plan()
        after = engine.run(inputs, subnet=3).logits
        legacy = IncrementalInference(network, dtype=np.float64, compiled=False)
        want = legacy.run(inputs, subnet=3).logits
        np.testing.assert_allclose(after, want, rtol=1e-9, atol=1e-10)
        assert not np.allclose(after, before)


class TestPlanStructuralLimits:
    """Networks a plan cannot represent must fail loudly or fall back."""

    def _non_incremental_network(self):
        spec = mlp(num_classes=4, input_dim=16, hidden=(12, 8))
        network = SteppingNetwork(
            spec, num_subnets=3, enforce_incremental=False, rng=np.random.default_rng(0)
        )
        set_prefix_assignments(network, [0.4, 0.7, 1.0])
        return network, np.random.default_rng(6).standard_normal((5, 16))

    def test_compile_rejects_non_incremental_layers(self):
        network, _ = self._non_incremental_network()
        with pytest.raises(ValueError, match="enforce_incremental"):
            NetworkPlan(network)
        assert not NetworkPlan.supports(network)

    def test_engine_falls_back_to_legacy_path(self):
        network, inputs = self._non_incremental_network()
        engine = IncrementalInference(network)  # compiled requested by default
        assert not engine.compiled
        result = engine.run(inputs, subnet=2)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=2).data
        np.testing.assert_allclose(result.logits, direct, rtol=1e-9, atol=1e-10)

    def test_backend_falls_back_to_legacy_path(self):
        network, inputs = self._non_incremental_network()
        backend = SteppingBackend(network)
        assert backend.plan is None
        outcome = backend.open(inputs).advance()
        assert outcome.subnet == 0

    def test_pool_before_any_parametric_layer_falls_back(self):
        from repro.models.spec import (
            ArchitectureSpec,
            ConvSpec,
            FlattenSpec,
            LinearSpec,
            PoolSpec,
        )

        spec = ArchitectureSpec(
            "pool-first",
            (3, 12, 12),
            4,
            (
                PoolSpec("max", 2),
                ConvSpec(8, kernel_size=3, padding=1),
                FlattenSpec(),
                LinearSpec(4, activation="none", is_output=True),
            ),
        )
        network = SteppingNetwork(spec, num_subnets=3, rng=np.random.default_rng(0))
        set_prefix_assignments(network, [0.4, 0.7, 1.0])
        assert not NetworkPlan.supports(network)
        engine = IncrementalInference(network)
        assert not engine.compiled
        inputs = np.random.default_rng(7).standard_normal((3, 3, 12, 12))
        result = engine.run(inputs, subnet=2)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=2).data
        np.testing.assert_allclose(result.logits, direct, rtol=1e-9, atol=1e-10)

    def test_for_network_cache_does_not_leak(self):
        import gc
        import weakref

        network, _ = _mlp_network()
        NetworkPlan.for_network(network)
        ref = weakref.ref(network)
        del network
        gc.collect()
        assert ref() is None


class TestCompiledStateInterop:
    """The compiled path writes the same cache layout as the legacy path,
    so suspended state moves freely between the two."""

    def test_state_migrates_between_compiled_and_legacy(self):
        network, inputs = _conv_network()
        compiled = IncrementalInference(network, dtype=np.float64)
        legacy = IncrementalInference(network, dtype=np.float64, compiled=False)
        compiled.run(inputs, subnet=0)
        state = compiled.export_state()
        legacy.import_state(state)
        stepped = legacy.step_to(3)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=3).data
        np.testing.assert_allclose(stepped.logits, direct, rtol=1e-9, atol=1e-10)

    def test_state_migrates_legacy_to_compiled_and_back(self):
        """Legacy steps in the middle must not leave the compiled path's
        incremental buffers stale (they are dropped and repacked)."""
        network, inputs = _conv_network()
        compiled = IncrementalInference(network, dtype=np.float64)
        legacy = IncrementalInference(network, dtype=np.float64, compiled=False)
        compiled.run(inputs, subnet=0)
        legacy.import_state(compiled.export_state())
        legacy.step_to(1)  # advances the cache without touching aux buffers
        compiled.import_state(legacy.export_state())
        stepped = compiled.step_to(3)
        network.eval()
        with no_grad():
            direct = network.forward(inputs, subnet=3).data
        np.testing.assert_allclose(stepped.logits, direct, rtol=1e-9, atol=1e-10)

    def test_interleaved_compiled_contexts_stay_isolated(self):
        network, inputs = _conv_network()
        batch_a, batch_b = inputs[:2], inputs[2:4]
        engine = IncrementalInference(network, dtype=np.float64)
        engine.run(batch_a, subnet=0)
        state_a = engine.export_state()
        engine.run(batch_b, subnet=1)
        state_b = engine.export_state()
        engine.import_state(state_a)
        stepped_a = engine.step_to(3)
        engine.export_state()
        engine.import_state(state_b)
        stepped_b = engine.step_to(2)
        network.eval()
        with no_grad():
            direct_a = network.forward(batch_a, subnet=3).data
            direct_b = network.forward(batch_b, subnet=2).data
        np.testing.assert_allclose(stepped_a.logits, direct_a, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(stepped_b.logits, direct_b, rtol=1e-9, atol=1e-10)


class TestPlanInvalidationHooks:
    """Structural mutations must drop cached plans (train-then-serve safety).

    The network subscribes ``invalidate_plans`` to every layer assignment,
    so construction moves, assignment overwrites, pruning and revival all
    force the next ``for_network`` to recompile instead of serving a
    stale snapshot.
    """

    def _cached(self, network):
        return NetworkPlan.for_network(network, dtype=np.float32)

    def test_move_units_forces_recompile(self):
        network, _ = _conv_network()
        stale = self._cached(network)
        layer = network.param_layers[0]
        movable = layer.assignment.units_in_exactly(0)
        layer.assignment.move_units(movable[:1], 1)
        fresh = self._cached(network)
        assert fresh is not stale
        assert fresh.subnet_macs == tuple(
            network.subnet_macs(level) for level in range(network.num_subnets)
        )

    def test_set_assignment_forces_recompile(self):
        network, _ = _mlp_network()
        stale = self._cached(network)
        set_prefix_assignments(network, [0.4, 0.6, 0.8, 1.0])
        assert self._cached(network) is not stale

    def test_pruning_forces_recompile(self):
        network, _ = _conv_network()
        stale = self._cached(network)
        apply_unstructured_pruning(network, 5e-2)
        assert self._cached(network) is not stale

    def test_revival_forces_recompile(self):
        from repro.core.pruning import revive_incoming_synapses

        network, _ = _conv_network()
        apply_unstructured_pruning(network, 5e-2)
        stale = self._cached(network)
        revived = revive_incoming_synapses(network, 0, [0, 1])
        assert revived > 0
        assert self._cached(network) is not stale

    def test_unchanged_network_keeps_its_plan(self):
        network, _ = _conv_network()
        assert self._cached(network) is self._cached(network)

    def test_mutated_plan_serves_correct_logits(self):
        """End to end: compile, mutate, recompile via the cache, compare
        against the legacy oracle."""
        network, inputs = _conv_network()
        self._cached(network)  # populate the cache pre-mutation
        layer = network.param_layers[1]
        movable = layer.assignment.units_in_exactly(0)
        if movable.size > 1:
            layer.assignment.move_units(movable[:1], 2)
        apply_unstructured_pruning(network, 4e-2)
        compiled = IncrementalInference(network, dtype=np.float64)
        legacy = IncrementalInference(network, dtype=np.float64, compiled=False)
        got = compiled.run(inputs, subnet=2).logits
        want = legacy.run(inputs, subnet=2).logits
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_retraining_invalidates_plans(self, image_loader):
        """Weight updates (distillation retraining) also stale the plan."""
        from repro.core import SteppingConfig, TrainingConfig, retrain_with_distillation

        network, _ = _conv_network()
        stale = self._cached(network)
        config = SteppingConfig(
            retrain_epochs=1,
            use_distillation=False,
            training=TrainingConfig(learning_rate=0.01, batch_size=16),
        )
        retrain_with_distillation(network, None, image_loader, config)
        assert self._cached(network) is not stale


def _edges(num_subnets):
    """Every one-level step, fresh run included: (-1, 0), (0, 1), ..."""
    return [(level - 1, level) for level in range(num_subnets)]


def _macs_delta(network, from_subnet, to_subnet):
    before = network.subnet_macs(from_subnet) if from_subnet >= 0 else 0
    return network.subnet_macs(to_subnet) - before


def _full_width_macs(network, from_subnet, to_subnet):
    """MACs of the untrimmed kernel: every new unit against every input."""
    total = 0
    for block in network.parametric_blocks():
        layer = block.layer
        if block.is_output:
            levels = network.input_unit_subnet(block.param_index)
            new = np.count_nonzero((levels > from_subnet) & (levels <= to_subnet))
            total += new * layer.out_features
            continue
        levels = layer.assignment.unit_subnet
        new = np.count_nonzero((levels > from_subnet) & (levels <= to_subnet))
        if block.kind == "conv":
            out_h, out_w = layer.output_spatial_size(*block.in_spatial)
            total += new * layer.in_channels * layer.kernel_size**2 * out_h * out_w
        else:
            total += new * layer.in_features
    return total


class TestExecutedMacs:
    """The kernel runs the MACs its subnet counts, and no more."""

    @pytest.mark.parametrize(
        "build",
        [_sorted_conv_network, _mlp_network, _avg_pool_tanh_network, _lenet_network],
        ids=["conv", "mlp", "avg_tanh", "lenet_3c1l"],
    )
    def test_level_sorted_steps_execute_the_subnet_delta(self, build):
        network, _ = build()
        plan = NetworkPlan(network, dtype=np.float32)
        for from_subnet, to_subnet in _edges(network.num_subnets):
            assert plan.executed_macs(from_subnet, to_subnet) == _macs_delta(
                network, from_subnet, to_subnet
            )
        # A multi-level jump pads lower-level units to the target width.
        for from_subnet, to_subnet in [(-1, 3), (0, 2), (1, 3)]:
            executed = plan.executed_macs(from_subnet, to_subnet)
            assert _macs_delta(network, from_subnet, to_subnet) <= executed
            assert executed <= _full_width_macs(network, from_subnet, to_subnet)

    def test_lenet_trims_below_the_full_width(self):
        network, _ = _lenet_network()
        plan = NetworkPlan(network, dtype=np.float32)
        executed = plan.executed_macs(-1, 0)
        assert executed * 3 < _full_width_macs(network, -1, 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("build", [_conv_network, _lenet_network], ids=["conv", "lenet_3c1l"])
    def test_unsorted_assignment_trims_partially_and_exactly(self, build, dtype):
        network, inputs = build()
        # A low-index level-0 unit moved up leaves each layer unsorted:
        # the next layer's level-0 prefix spans an input it cannot use
        # yet.  (The conv fixture's scattered assignment starts unsorted.)
        for layer in network.param_layers[:-1]:
            level0 = layer.assignment.units_in_exactly(0)
            if level0.size > 1:
                layer.assignment.move_units(level0[:1], 2)
        network.assignment.validate()
        plan = NetworkPlan(network, dtype=dtype)
        partial = False
        for from_subnet, to_subnet in _edges(network.num_subnets):
            executed = plan.executed_macs(from_subnet, to_subnet)
            delta = _macs_delta(network, from_subnet, to_subnet)
            assert delta <= executed <= _full_width_macs(network, from_subnet, to_subnet)
            partial |= executed > delta
        assert partial
        tol = TOLERANCES[np.dtype(dtype)]
        compiled = IncrementalInference(network, dtype=dtype, plan=plan)
        legacy = IncrementalInference(network, dtype=dtype, compiled=False)
        np.testing.assert_allclose(
            compiled.run(inputs, subnet=0).logits, legacy.run(inputs, subnet=0).logits, **tol
        )
        for level in range(1, network.num_subnets):
            np.testing.assert_allclose(
                compiled.step_to(level).logits, legacy.step_to(level).logits, **tol
            )


class TestBatchBitEquality:
    """``execute_batch`` is bit-equal to ``execute`` per member, also
    where the trimmed GEMM width crosses BLAS blocking boundaries."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [2, 3, 8])
    @pytest.mark.parametrize("edge", [(-1, 0), (1, 2), (0, 2), (-1, 3)])
    def test_batched_step_matches_solo(self, dtype, size, edge):
        from repro.core.plan import BatchMember

        network, images = _lenet_network()
        plan = NetworkPlan.for_network(network, dtype=dtype)
        from_subnet, to_subnet = edge
        members = []
        for index in range(size):
            inputs = images[index : index + 1].astype(dtype)
            cache, aux, logits = {}, {}, None
            for level in range(from_subnet + 1):
                logits = plan.execute(inputs, cache, aux, logits, level - 1, level)
            members.append(BatchMember(inputs, cache, aux, logits))
        solo = copy.deepcopy(members)
        batched = plan.execute_batch(members, from_subnet, to_subnet)
        for member, twin, got in zip(members, solo, batched):
            want = plan.execute(
                twin.inputs, twin.cache, twin.aux, twin.logits, from_subnet, to_subnet
            )
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            for key, value in twin.cache.items():
                np.testing.assert_array_equal(member.cache[key], value)
