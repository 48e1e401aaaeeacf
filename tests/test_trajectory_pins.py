"""Fixed particle runs, one per model family, pinned bit for bit.

Each case records the per-step death counts, the sha256 of the final state
array and the sha256 of the model block that ``report.json`` carries.  The
pinned values were produced by the engine before the drift/kill families
were unified; any change to the draw accounting, to a floating-point
expression of a drift or kill formula, or to the report encoding shows here.
"""

import hashlib
import json

import pytest

import qsdlab as q
from qsdlab.fv import FVConfig, run_fv

MODELS = {
    "torus_const_d2": lambda: q.TorusDiffusion(dim=2, drift=0.3, kill=1.5).model(0.05),
    "torus_sine_cosine_d1": lambda: q.TorusDiffusion(
        dim=1, drift=("sine", 0.75), kill=("cosine", 2.0, 1.5)).model(0.05),
    "periodic_shift": lambda: q.PeriodicShift(speed=1).model(0.05),
    "interval_brownian": lambda: q.IntervalBrownian().model(0.002),
    "house_of_card": lambda: q.HouseOfCard(c=2, q=1.5).model(0.05),
    "two_point": lambda: q.TwoPoint(1.0, 2.0).model(0.1),
    "birth_death": lambda: q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=20).model(0.1),
    "growth_frag": lambda: q.GrowthFrag(growth=1.0, frac=0.5, jump_rate=1.0,
                                        kill_rate=0.5).model(0.05),
}
N_PARTICLES = {"periodic_shift": 16}

# family -> (deaths per step, sha256 of final states, sha256 of describe())
PINS = {
    "torus_const_d2": (
        [4, 9, 4, 4, 4, 5, 8, 3, 4, 6, 4, 3, 3, 6, 1, 1, 7, 3, 5, 6, 8, 7, 2, 6, 2, 5, 7, 7, 4, 8],
        "85a471ade0a9b7e39da5f8c66ea66322988be8e1bfab90ed0d174f4a732a9677",
        "0070b75761e9c7648800c465944192a2649ad16aee88eb8f7c61077ef4948be5"),
    "torus_sine_cosine_d1": (
        [9, 5, 3, 5, 6, 4, 10, 10, 6, 2, 6, 4, 5, 6, 3, 3, 7, 3, 5, 8, 9, 5, 2, 7, 3, 7, 8, 11, 8, 4],
        "62fba91422660dbccb702757f6279971aaaf9408b35b1f66ca3916d5f48a7990",
        "4a40d207d58815caea42526990fb19e7784a709cf1e944bf2a385352fe4e8eef"),
    "periodic_shift": (
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "1f10304fc92d0c706795207de615414896c4abd4f9d1ef88cda6b81cfff39b83",
        "66c8637284c0427c4ec9d1c0bda4d1247e0028fab65f676bbfa1622f6b9765ae"),
    "interval_brownian": (
        [0, 2, 3, 0, 1, 1, 1, 1, 0, 0, 3, 0, 3, 2, 1, 0, 1, 2, 0, 0, 1, 0, 0, 2, 2, 0, 1, 0, 1, 0],
        "daba1906d04095d72dd6bc072b3beab41ce0339b2adda2f327c02a61e5bd7c92",
        "1db3d7f4dd4f03580e21bfa492622059b4fe1a09b0b94227aa93e7ef994e4bcd"),
    "house_of_card": (
        [1, 1, 1, 2, 2, 1, 3, 2, 4, 2, 3, 3, 3, 5, 3, 3, 1, 3, 2, 1, 5, 3, 4, 3, 3, 1, 3, 4, 4, 2],
        "7d4397dcced21a91b4aae9d8f9e617ee852258497c32a9d2f8eab887868b7b4d",
        "77c587dc3a33d7da1188d720036bb93c6a1b34685a5d8862811c219216e90119"),
    "two_point": (
        [10, 4, 8, 5, 5, 3, 6, 6, 9, 4, 7, 6, 6, 5, 8, 6, 3, 3, 5, 4, 3, 7, 5, 9, 6, 6, 15, 7, 7, 6],
        "90230d968dac1a694d7e9b38e1dfee0ddd04c20842958c6031d6ae32c61678d8",
        "84edbbaf5ecb38b3b29d71c783877832df5ecf0f83d4af186af224cf3a06450a"),
    "birth_death": (
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        "52fd198e81ed032498b6ce3b28f4943f10bab43026253c63bdaf0f518f7d5d34",
        "b6b0153d4b715f7e824cec4e480a4ff44b02a5dc4b3850fdf1b702fc0c881981"),
    "growth_frag": (
        [2, 1, 0, 0, 2, 1, 2, 1, 2, 0, 2, 2, 2, 1, 0, 2, 0, 0, 3, 1, 2, 3, 0, 2, 2, 1, 5, 3, 1, 2],
        "e21ce537fe2b764cae6e28e489f6a1c3e661b7f9682aa6c1147249a4e0cb5d52",
        "89ae2e63832d248df4d7032444b7b585e2bf8101e0756c697449d288b21d9882"),
}


@pytest.mark.parametrize("family", sorted(MODELS))
def test_pinned_trajectory(family):
    model = MODELS[family]()
    deaths, final_sha, model_sha = PINS[family]
    rep = run_fv(model, FVConfig(n_particles=N_PARTICLES.get(family, 64),
                                 n_steps=30, seed=2024, snapshot_stride=7))
    assert [int(v) for v in rep.deaths] == deaths
    assert hashlib.sha256(rep.final_states.tobytes()).hexdigest() == final_sha
    desc = json.dumps(model.describe(), sort_keys=True).encode()
    assert hashlib.sha256(desc).hexdigest() == model_sha


# sha256 of a3_failure.json written by ``qsdlab demo --name a3_failure`` at
# the default seed; the demo is one ``run_fv`` call per proposal-only model,
# so any change to their engine kernels or their streams shows here
A3_FAILURE_SHA = "ba3195db3d8f8b3d6f11275e298a9af01475ae5402a440c730f2c64410615960"


def test_pinned_a3_failure_demo(tmp_path):
    from qsdlab.cli import EXIT_OK, main

    assert main(["demo", "--name", "a3_failure",
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    blob = (tmp_path / "a3_failure.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == A3_FAILURE_SHA
