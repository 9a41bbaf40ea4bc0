"""High-level SteppingNet design-flow API.

``build_steppingnet`` runs the full pipeline of the paper on a dataset:

1. train the dense original network (the accuracy upper bound and the
   distillation teacher),
2. width-expand the architecture and wrap it in a
   :class:`~repro.core.network.SteppingNetwork`,
3. construct the subnets by neuron reallocation under the MAC budgets
   (Sec. III-A),
4. retrain all subnets with knowledge distillation (Sec. III-B),
5. evaluate every subnet and assemble a :class:`SteppingNetResult`.

Every stage is also available individually for ablations and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..data.loaders import DataLoader
from ..models.builder import PlainNetwork, build_plain_model
from ..models.spec import ArchitectureSpec
from ..utils.logging import get_logger
from ..utils.rng import new_generator
from .config import SteppingConfig
from .construction import ConstructionResult, SubnetConstructor
from .distillation import DistillationResult, retrain_with_distillation
from .mac import MacReport, mac_report
from .network import SteppingNetwork
from .trainer import evaluate_all_subnets, evaluate_plain_model, train_plain_model


@dataclass
class SteppingNetResult:
    """Everything produced by the SteppingNet design flow for one network/dataset."""

    spec: ArchitectureSpec
    expanded_spec: ArchitectureSpec
    config: SteppingConfig
    network: SteppingNetwork
    teacher: Optional[PlainNetwork]
    teacher_accuracy: float
    subnet_accuracies: List[float]
    macs: MacReport
    construction: ConstructionResult
    distillation: Optional[DistillationResult]

    @property
    def mac_fractions(self) -> List[float]:
        return self.macs.fractions

    # ------------------------------------------------------------------
    # Serving hand-off
    # ------------------------------------------------------------------
    def servable(self) -> SteppingNetwork:
        """The trained network, ready for serving backends.

        Switches to eval mode (batch-norm running statistics — the
        semantics compiled plans assume) and returns the network; the
        serving layer (:func:`repro.serving.serve`,
        :class:`~repro.serving.cluster.ServingCluster`) calls this when
        handed a result instead of a bare network.
        """
        self.network.eval()
        return self.network

    def serve(self, cluster_spec, requests=None):
        """Serve this result on a declaratively specified fleet.

        Convenience for ``repro.serving.serve(self, cluster_spec)`` — the
        train-then-serve hand-off in one call.  Returns the fleet's
        :class:`~repro.serving.cluster.ClusterReport`: the
        :class:`~repro.serving.engine.ServingReport` metrics over the
        fleet's job table, plus the per-node reports.
        """
        from ..serving.cluster import serve as _serve

        return _serve(self, cluster_spec, requests)

    def table_row(self) -> Dict[str, float]:
        """One row in the format of the paper's Table I."""
        row: Dict[str, float] = {
            "network": self.spec.name,
            "orig_accuracy": self.teacher_accuracy,
        }
        for index, (accuracy, fraction) in enumerate(
            zip(self.subnet_accuracies, self.mac_fractions), start=1
        ):
            row[f"A{index}"] = accuracy
            row[f"M{index}/Mt"] = fraction
        return row


def build_stepping_network(
    spec: ArchitectureSpec,
    config: SteppingConfig,
    rng: Optional[np.random.Generator] = None,
) -> SteppingNetwork:
    """Width-expand ``spec`` and instantiate the stepping network (untrained)."""
    expanded = spec.expand(config.expansion_ratio)
    return SteppingNetwork(
        expanded,
        num_subnets=config.num_subnets,
        enforce_incremental=config.enforce_incremental,
        min_units_per_layer=config.min_units_per_layer,
        rng=rng if rng is not None else new_generator(config.seed),
    )


def build_steppingnet(
    spec: ArchitectureSpec,
    train_loader: DataLoader,
    test_loader: DataLoader,
    config: Optional[SteppingConfig] = None,
    teacher: Optional[PlainNetwork] = None,
    logger=None,
) -> SteppingNetResult:
    """Run the complete SteppingNet design flow.

    Parameters
    ----------
    spec:
        The *original* (unexpanded) architecture.  MAC budgets are
        interpreted relative to this network's MAC count, as in the
        paper's Table I.
    train_loader / test_loader:
        Training and evaluation data.
    config:
        Flow configuration; defaults to :class:`SteppingConfig` defaults.
    teacher:
        Optionally, an already trained dense network to reuse as the
        teacher (skips teacher training).
    """
    config = config or SteppingConfig()
    logger = logger or get_logger("repro.steppingnet")
    rng = new_generator(config.seed)

    # 1. Dense original network: accuracy upper bound and KD teacher.
    if teacher is None:
        teacher = build_plain_model(spec, rng=rng)
        train_plain_model(teacher, train_loader, config.teacher_epochs, config.training)
    teacher_accuracy = evaluate_plain_model(teacher, test_loader)
    logger.info("teacher accuracy: %.4f", teacher_accuracy)

    # 2. Expanded stepping network.
    network = build_stepping_network(spec, config, rng=rng)

    # 3. Subnet construction under the MAC budgets of the original network.
    constructor = SubnetConstructor(
        network, config, train_loader, reference_macs=spec.total_macs(), logger=logger
    )
    construction = constructor.run()
    logger.info(
        "construction finished after %d iterations (budgets satisfied: %s)",
        construction.num_iterations,
        construction.satisfied,
    )

    # 4. Knowledge-distillation retraining.
    distillation = retrain_with_distillation(
        network,
        teacher if config.use_distillation else None,
        train_loader,
        config,
    )

    # 5. Evaluation.
    accuracies = evaluate_all_subnets(network, test_loader)
    macs = mac_report(network, reference_spec=spec)
    logger.info("subnet accuracies: %s", ["%.3f" % a for a in accuracies])
    return SteppingNetResult(
        spec=spec,
        expanded_spec=network.spec,
        config=config,
        network=network,
        teacher=teacher,
        teacher_accuracy=teacher_accuracy,
        subnet_accuracies=accuracies,
        macs=macs,
        construction=construction,
        distillation=distillation,
    )
