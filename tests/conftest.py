"""The theorem fixtures shared by the acceptance suite and the golden digests.

Three shipped workspaces and eight seeded random instances over Q and
F_5; built once per session because several criteria and the pinned
report digests read the same instances.
"""

import pytest

from dgcat.fields import PrimeField, Rationals
from dgcat.fixtures import random_theorem_fixture
from dgcat.lambda_cat import build_lambda
from dgcat.shipped import SHIPPED_BUILDERS

QQ = Rationals()
F5 = PrimeField(5)


@pytest.fixture(scope="session")
def theorem_fixtures():
    fixtures = []
    for name, builder in SHIPPED_BUILDERS.items():
        ws = builder()
        lam = build_lambda(
            ws.categories["T"], ws.categories["U"], ws.bimodules["M"], validate=False
        )
        fixtures.append(
            {
                "name": name,
                "seed": 0,
                "t_cat": ws.categories["T"],
                "u_cat": ws.categories["U"],
                "bimodule": ws.bimodules["M"],
                "lambda": lam,
                "comma_objects": [
                    ws.comma_objects["o_can"],
                    ws.comma_objects["o_zero"],
                ],
                "lambda_modules": [ws.modules["C"]],
            }
        )
    specs = [
        (0, QQ, 1),
        (1, QQ, 1),
        (2, QQ, 1),
        (3, F5, 1),
        (4, F5, 1),
        (5, F5, 1),
        (6, QQ, 2),
        (7, F5, 2),
    ]
    for seed, field, max_objects in specs:
        fx = random_theorem_fixture(seed, field, max_objects=max_objects)
        fx["name"] = f"random{seed}"
        fixtures.append(fx)
    return fixtures
