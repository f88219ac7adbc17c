"""Two-phase adversarial training with the evolving loss schedule, a
first-order meta-learning step per epoch, early stopping and checkpointing.

Loss routing: decoder 1 parameters are updated from L1 only, decoder 2
parameters from L2 only, and every shared parameter (encoders, embeddings)
receives the sum of both contributions.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .dataset import batch_groups
from .errors import EmptyInput, InvalidConfig, NonFiniteLoss, check_int, check_real

LR_DECAY = 0.5    # `fit` halves the learning rate every lr_decay_every_epochs epochs
EPSILON = 1.05    # the reconstruction weight at schedule index n is EPSILON^-n
META_LR = 0.02    # the MAML outer step size
PATIENCE = 3      # epochs without improvement before `fit` stops early


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 128
    lr: float = 0.01
    seed: int = 0
    use_self_condition: bool = True
    use_adversarial: bool = True
    use_maml: bool = True
    lr_decay_every_epochs: int = 1

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                          ("lr_decay_every_epochs", 1)):
            check_int("train", name, getattr(self, name), low)
        check_real("train", "lr", self.lr, lambda v: v >= 0, ">= 0")
        for name in ("use_self_condition", "use_adversarial", "use_maml"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidConfig(f"train {name} must be true or false")


@dataclass
class EpochRecord:
    epoch: int
    mean_l1: float
    mean_l2: float
    val_score: float | None    # None when the validation split is empty
    lr: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # list[EpochRecord]
    stop_reason: str = ""
    best_epoch: int = 0

    def to_dict(self):
        # timing is left out so reruns with the same seed write byte-identical
        # reports
        d = asdict(self)
        for rec in d["epochs"]:
            del rec["seconds"]
        return d


# -- losses -------------------------------------------------------------------


def loss_phase1(O1, O2, W):
    """Per-decoder reconstruction loss: Frobenius norm of the deviation over
    the window, averaged over the batch."""
    return ad.mean_frobenius(O1, W.data), ad.mean_frobenius(O2, W.data)


def loss_adversarial(O2_hat, W):
    """The conditioned-reconstruction deviation d, which L1 adds and L2
    subtracts in the min-max game."""
    return ad.mean_frobenius(O2_hat, W.data)


def schedule_weight(n):
    """EPSILON^-n, the weight on the reconstruction term at schedule index n."""
    return EPSILON ** (-n)


def loss_combined(phase1, d, n, use_adversarial=True):
    """Weighted combination of reconstruction and adversarial terms, each
    loss one node: L1 = p1*w + d*(1-w), L2 = p2*w + (-d)*(1-w).  With the
    adversarial toggle off the losses are the pure reconstruction terms."""
    p1, p2 = phase1
    if not use_adversarial:
        return p1, p2
    w = schedule_weight(n)
    return ad.mix(p1, d, w, 1.0), ad.mix(p2, d, w, -1.0)


# -- gradient routing ---------------------------------------------------------


# walk bits: a parameter's group, and the reverse walk that serves it
SHARED, D1, D2 = 1, 2, 4


def _partition(path):
    return {"decoder1": D1, "decoder2": D2}.get(path.split(".")[0], SHARED)


def partitioned_grads(model, L1, L2):
    """Gradients with decoder1 driven by L1, decoder2 by L2, and shared
    parameters by L1 + L2, written into the store's flat gradient `grad`
    (zero where no walk reaches).

    Three reverse walks over one tape order.  The shared walk starts from L1
    and L2 together: the adversarial terms +-(1-w)*d cancel exactly at d, so
    it never enters the phase-2 half of the tape.  Each decoder's walk starts
    from its own loss and visits only nodes that lead to its parameters."""
    store = model.params
    order, masks = ad.tape_order([L1, L2], store.tags(_partition))
    one = np.ones_like(L1.data)
    store.grad.fill(0.0)
    for bit, seeds in ((SHARED, [(L1, one), (L2, one)]), (D1, [(L1, one)]),
                       (D2, [(L2, one)])):
        for p, g in ad.reverse_walk(seeds, order, masks, bit).items():
            np.copyto(store.grad_slice[p], g)


def _batch_losses(model, W, C, cfg, n, rng):
    out = model.forward_two_phase(W, C, rng=rng, self_condition=cfg.use_self_condition)
    Wt = Tensor(W)
    phase1 = loss_phase1(out.O1, out.O2, Wt)
    d = loss_adversarial(out.O2_hat, Wt)
    return loss_combined(phase1, d, n, cfg.use_adversarial)


# -- epoch / meta steps -------------------------------------------------------


def train_epoch(model, groups, cfg, opt, epoch, rng):
    """One pass over the batch groups, with the epoch as the schedule index.
    Returns (mean L1, mean L2).  A step's graph is dropped before the next
    forward, whose attention weights reuse its buffers (`ad.WeightArena`)."""
    l1_sum, l2_sum, count = 0.0, 0.0, 0
    arena = ad.WeightArena()
    for b, (W, C, _) in enumerate(groups):
        with arena:
            L1, L2 = _batch_losses(model, W, C, cfg, epoch, rng)
        v1, v2 = float(L1.data), float(L2.data)
        if not (np.isfinite(v1) and np.isfinite(v2)):
            raise NonFiniteLoss(
                f"non-finite loss at epoch {epoch}, batch {b}: L1={v1}, L2={v2}",
                epoch=epoch, batch=b)
        partitioned_grads(model, L1, L2)
        del L1, L2
        opt.step()
        l1_sum += v1 * W.shape[0]
        l2_sum += v2 * W.shape[0]
        count += W.shape[0]
    return l1_sum / count, l2_sum / count


def meta_update(store, grad_fn, alpha, beta):
    """First-order meta step: inner update theta' = theta - alpha*g(theta),
    outer update theta <- theta - beta*g(theta'), approximating the gradient
    at theta by the gradient evaluated at theta'.  `grad_fn` returns the
    gradient laid out like `store.flat`, possibly a buffer that its next call
    overwrites."""
    theta = store.flat.copy()
    np.subtract(theta, alpha * grad_fn(), out=store.flat)
    np.subtract(theta, beta * grad_fn(), out=store.flat)


def maml_step(model, batch_group, cfg, n):
    """Meta-learn on one random batch using the combined loss at the current
    schedule index, the outer step at META_LR.  No-op when use_maml is off."""
    if not cfg.use_maml:
        return
    W, C, _ = batch_group

    def grad_fn():
        rng = np.random.default_rng(cfg.seed + 104729)
        L1, L2 = _batch_losses(model, W, C, cfg, n, rng)
        partitioned_grads(model, L1, L2)
        return model.params.grad

    meta_update(model.params, grad_fn, cfg.lr, META_LR)


def validation_score(model, val_batch, cfg, n):
    """Mean combined loss over the validation windows, dropout off; None
    when the split is empty, which a report writes as JSON null."""
    if len(val_batch) == 0:
        return None
    total, count = 0.0, 0
    with ad.no_grad():
        for W, C, _ in batch_groups(val_batch, cfg.batch_size):
            L1, L2 = _batch_losses(model, W, C, cfg, n, rng=None)
            total += 0.5 * (float(L1.data) + float(L2.data)) * W.shape[0]
            count += W.shape[0]
    return total / count


def fit(model, train_batch, val_batch, cfg, progress=True):
    """Run the full training loop; leaves the model at its best-epoch weights
    and returns the per-epoch report."""
    if len(train_batch) == 0:
        raise EmptyInput("training batch is empty")
    groups = batch_groups(train_batch, cfg.batch_size)
    opt = AdamW(model.params, lr=cfg.lr)
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    meta_rng = np.random.default_rng(cfg.seed + 1)
    best_score = float("inf")
    best_params = model.params.flat.copy()
    since_improve = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        # training and the meta step weight the loss at n = epoch, validation
        # at n = epoch + 1
        mean_l1, mean_l2 = train_epoch(model, groups, cfg, opt, epoch, rng)
        if epoch % cfg.lr_decay_every_epochs == 0:
            opt.lr *= LR_DECAY
        maml_step(model, groups[meta_rng.integers(len(groups))], cfg, epoch)
        val = validation_score(model, val_batch, cfg, epoch + 1)
        secs = time.perf_counter() - t0
        report.epochs.append(EpochRecord(epoch=epoch, mean_l1=mean_l1,
                                         mean_l2=mean_l2, val_score=val,
                                         lr=opt.lr, seconds=secs))
        if progress:
            print(f"epoch {epoch} | L1 {mean_l1:.6f} | L2 {mean_l2:.6f} | "
                  f"val {'-' if val is None else f'{val:.6f}'} | lr {opt.lr:.6g} | "
                  f"secs {secs:.2f}", file=sys.stderr)
        track = mean_l1 if val is None else val
        if track < best_score:
            best_score = track
            best_params = model.params.flat.copy()
            report.best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= PATIENCE:
                report.stop_reason = (
                    f"early stop: no improvement for {since_improve} epochs")
                break
    else:
        report.stop_reason = "completed all epochs"
    model.params.flat[:] = best_params
    return report
