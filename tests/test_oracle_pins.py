"""Fixed oracle and Harris runs through the CLI, pinned bit for bit.

Each case runs ``qsdlab oracle`` (or ``qsdlab harris``) on a small config
and records the sha256 of every file it writes.  The cases cover a reducible
chain, a primitive finite chain, the rank-1 redraw step of the
uniformization sum (on a dyadic and a non-dyadic grid), the two dense grid
discretizations and a 600-cell interval on the sparse generator path, so
any change to the semigroup, the class/period analysis, the power
iteration, the generator eigensolve, the QSD list or the Harris search that
moves a written byte shows here.
"""

import hashlib
import json

import pytest

from qsdlab.cli import EXIT_OK, main

BIRTH_DEATH = {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1, "truncation": 40}

# case -> (mode, model name, model params, oracle section)
CASES = {
    "two_point": ("oracle", "two_point", {"a": 1.0, "b": 2.0}, {}),
    "birth_death": ("oracle", "birth_death", BIRTH_DEATH, {}),
    "house_of_card": ("oracle", "house_of_card", {"c": 1.0, "q": 1.0},
                      {"n_grid": 128}),
    # rates of 1/200 are not dyadic, so this pin shows a change in the
    # order the rates of a dense row are summed in
    "house_of_card_200": ("oracle", "house_of_card", {"c": 1.0, "q": 1.0},
                          {"n_grid": 200}),
    "interval_brownian": ("oracle", "interval_brownian", {}, {"n_grid": 64}),
    "interval_brownian_600": ("oracle", "interval_brownian", {},
                              {"n_grid": 600}),
    "torus_sine_cosine": ("oracle", "torus_diffusion",
                          {"dim": 1, "drift": ["sine", 0.75],
                           "kill": ["cosine", 2.0, 1.5]},
                          {"n_grid": 64}),
    "harris_birth_death": ("harris", "birth_death", BIRTH_DEATH, {}),
    # the benchmark's Harris config
    "harris_birth_death_400": ("harris", "birth_death",
                               {**BIRTH_DEATH, "truncation": 400}, {}),
}
OUTPUTS = {"oracle": ("oracle.json", "qsd.csv"), "harris": ("certificate.json",)}

# case -> sha256 of each output file, in OUTPUTS order
PINS = {
    "birth_death": (
        "ecc528919fd4b41ee04a76edaf97f721ff0c53b13e1cfeac3a910c8d981593f7",
        "f0b9d1a92f353f226202147cfdce0ef66a3ed83959344422235f2ed3374f928b"),
    "harris_birth_death": (
        "a18757a8950e97d652f747e4b035a3ef998f978c2291dfd84ced837c610a48e5",),
    "harris_birth_death_400": (
        "32b2c47788d47e4846284dfe171911b93968ab14272f5c9d12275e72b138fefc",),
    "house_of_card": (
        "1003c29f611813a19cb960c6e190f9e886180a461cb5b0f0fbea9102e442bfb3",
        "f20c1ff955b9ae3e7662526ac8f330f69f5122569fa14a0010ff6f109a0480a8"),
    "house_of_card_200": (
        "6a269c4d157202e856ef5cd17313bb8fcca35f6a854e41dc9a4df258e266a03e",
        "9681269fab2adec3ca8f3866d2ae48bf49095401e83359f75523af299f4c8449"),
    "interval_brownian": (
        "2c7a2b3d99ac03815aaa4d4652e2e702d1f9048d4176d4ca795b3d0a63b64080",
        "93747d99dd3b71f3eefc97719ea29c21a19769324b45783902dca1787514d592"),
    "interval_brownian_600": (
        "20976dd7d25897d1a7294090b2cdc8a7ef7a00efd90ee1572d2c600716f8ccb0",
        "b4b9db3bdd135a59b1c7ebcb45077209926578b4280f873d87de93e26834b23c"),
    "torus_sine_cosine": (
        "4fd5445d8d99851765285d8ac5ef90cd523af007014e19980819cd7a191abfc9",
        "e5c7c92228dffb26ef0032912d32a4316e7f613241834c00b6e88da446ded5dd"),
    "two_point": (
        "f356291d261e0253309e68d8de33f7633fdb6d3eb375257e1e2e4d4380774a2b",
        "9d6310ca263a162b3264357f66a4c001782d38890115794eb627d9ceca1b264d"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_oracle_outputs(case, tmp_path):
    mode, name, params, oracle = CASES[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": mode,
                               "model": {"name": name, "params": params},
                               "oracle": oracle,
                               "output_dir": str(tmp_path / "out")}))
    assert main([mode, "--config", str(cfg)]) == EXIT_OK
    digests = tuple(hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
                    for f in OUTPUTS[mode])
    assert digests == PINS[case]
