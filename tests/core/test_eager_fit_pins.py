"""Pinned digests of small eager fits and white-box attacks.

Each case trains (or attacks) a tiny model at a fixed seed and hashes
its loss history and final weights. The digests were taken before the
autograd engine was trimmed to its single eager path; any change to an
op's forward or backward arithmetic — even one ULP — changes a digest.
They are as host-specific as any bitwise pin: a different numpy/BLAS
build may round differently and must re-pin.
"""

import hashlib

import numpy as np
import pytest

from repro import APOTS
from repro.attacks import FGSMAttack, PGDAttack, PlausibilityBox
from repro.core import APOTSTrainer, Discriminator, TrainSpec, build_predictor, table1_spec
from repro.core.trainer import SupervisedTrainer


def digest(history, *modules):
    h = hashlib.sha256(repr(vars(history)).encode())
    for module in modules:
        for name, value in module.state_dict().items():
            h.update(f"{name}{value.shape}".encode())
            h.update(value.tobytes())
    return h.hexdigest()


def fresh_predictor(kind, dataset, rng):
    return build_predictor(kind, dataset.config, spec=table1_spec(kind, 0.05), rng=rng)


def supervised_digest(dataset, kind, **spec):
    predictor = fresh_predictor(kind, dataset, np.random.default_rng(0))
    history = SupervisedTrainer(predictor, TrainSpec(epochs=2, **spec)).fit(dataset)
    return digest(history, predictor)


def apots_digest(dataset, kind, conditional, **spec):
    rng = np.random.default_rng(0)
    predictor = fresh_predictor(kind, dataset, rng)
    disc = Discriminator(
        dataset.config, spec=table1_spec(kind, 0.05), conditional=conditional, rng=rng
    )
    spec = TrainSpec(epochs=2, adversarial_batch_size=8, **spec)
    history = APOTSTrainer(predictor, disc, spec).fit(dataset)
    return digest(history, predictor, disc)


SUPERVISED = {
    "F": "0d4431cfcf949a881b6eb12d4e00c03876cf26b7b7d7c73324f737a26f15fd9e",
    "L": "02747807df485da3b075e4e89b5712a6ddf8fcbb9984784b80142ed9c33cb3b0",
}

APOTS_FITS = {
    ("F", True): "0960bf2e171b8220181f12aebabc9df443fe441070eb3e904f00a55bd53e0da0",
    ("F", False): "2a946bab942fda465888c98787ccf6d6238f0fdc019157e2383a51fcc39a00bf",
    ("L", True): "bd8cbcc9fe327b4d24212098c3de5937bf2961b73d103ab8d22c45b7974996a3",
}

ROBUST_SUPERVISED = {
    "fgsm": "13311bc8ca6f652c98ee2cf7b0730708d8870b455627bb159821645425e640a9",
    "pgd": "f898627e31ff815e1c6c631215f4842ff7170832bee583c405f2c28dfccad14a",
}

ROBUST_APOTS = "69104c86e674b0ae2f8f60ab164a3e920bbea33f163eca46afa86f980aec48c9"

ATTACKS = {
    "fgsm": "75e4d1dbea86e97c57b0e750a961131d189c87aa96a74b0d63ae56cfe10fc26e",
    "pgd": "29330f77eb9271cca6b624246f3e26dc59f3f0211e17682f87b604058fb0d32a",
}


class TestSupervisedPins:
    @pytest.mark.parametrize("kind", sorted(SUPERVISED))
    def test_fit_digest(self, tiny_dataset, kind):
        got = supervised_digest(
            tiny_dataset, kind, batch_size=32, max_steps_per_epoch=4, seed=3
        )
        assert got == SUPERVISED[kind]


class TestAPOTSPins:
    @pytest.mark.parametrize("kind,conditional", sorted(APOTS_FITS))
    def test_fit_digest(self, tiny_dataset, kind, conditional):
        got = apots_digest(
            tiny_dataset, kind, conditional,
            max_steps_per_epoch=4, discriminator_steps=2, seed=3,
        )
        assert got == APOTS_FITS[kind, conditional]


class TestRobustPins:
    @pytest.mark.parametrize("attack", sorted(ROBUST_SUPERVISED))
    def test_supervised_fit_digest(self, tiny_dataset, attack):
        got = supervised_digest(
            tiny_dataset, "F", batch_size=16, max_steps_per_epoch=3,
            robust_fraction=0.5, adv_attack=attack, adv_pgd_steps=2, seed=7,
        )
        assert got == ROBUST_SUPERVISED[attack]

    def test_apots_fit_digest(self, tiny_dataset):
        got = apots_digest(
            tiny_dataset, "F", True,
            max_steps_per_epoch=3, robust_fraction=0.5, adv_attack="fgsm", seed=7,
        )
        assert got == ROBUST_APOTS


@pytest.fixture(scope="module")
def victim(tiny_dataset, micro_preset):
    """A plain-F model and six test windows to attack."""
    model = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=0)
    model.fit(tiny_dataset)
    batch = tiny_dataset.batch(tiny_dataset.subset("test")[:6])
    return model, (batch.images, batch.day_types, batch.targets)


class TestAttackPins:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_perturbation_digest(self, victim, name):
        victim_model, (images, day_types, targets) = victim
        if name == "fgsm":
            box = PlausibilityBox(epsilon_kmh=5.0)
            attack = FGSMAttack(victim_model.predictor, victim_model.scalers, box)
        else:
            box = PlausibilityBox(epsilon_kmh=5.0, max_step_kmh=3.0)
            attack = PGDAttack(
                victim_model.predictor, victim_model.scalers, box, steps=4, seed=11
            )
        result = attack.perturb(images, day_types, targets)
        h = hashlib.sha256()
        for array in (result.images, result.speeds_kmh, result.reference_kmh):
            h.update(array.tobytes())
        h.update(repr(tuple(result.losses)).encode())
        assert h.hexdigest() == ATTACKS[name]
