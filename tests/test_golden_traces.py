"""Golden traces: the exact bytes every driver records on small specs.

Each digest covers the returned estimate, the per-checkpoint estimates,
squared errors and ESS, and the degenerate-fallback flag.  The specs put
checkpoints in the middle of a batch, on a batch boundary and in a final
partial batch, one of them a batch of one point; one spec's single batch
covers the whole budget, and one weights prefixes longer than the weighted
sum's block of rows (``estimators._AVERAGE_BLOCK_ROWS``).  They cover
mixture weights 0, 0.3 and 1, a projection box (on the adaptive drivers, and
on all five in one spec), a fixed temperature, an objective returning some
+inf, and one whose first batch is all +inf so that the degenerate fallback
runs.  Most specs are 3-dimensional; three more cover d = 1, 8 and 12, on
both sides of numpy's switch to pairwise summation at eight elements per row.

Refactors of the weighting arithmetic must leave every digest unchanged.
The bits depend on numpy's SIMD kernels, so the digests only apply on the
platforms they were recorded on: an AVX-512 host, and the same host running
numpy's AVX2 kernels (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"``), where ``np.exp`` and ``np.log`` round five ``adaptive_liso``
traces differently.
"""

import hashlib
import platform
import sys

import numpy as np
import pytest

from lisopt import (
    AdaptiveConfig,
    IsotropicGaussian,
    Objective,
    StaticConfig,
    benchmark,
    run_adaptive_liso,
    run_adaptive_random_search,
    run_isotropic_es,
    run_liso,
    run_random_search,
)
from lisopt.estimators import _AVERAGE_BLOCK_ROWS


def _fingerprint():
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return (f"{platform.machine()} python{sys.version_info[0]}.{sys.version_info[1]} "
            f"numpy{np.__version__} simd:{','.join(simd)}")


RECORDED_ON = "x86_64 python3.11 numpy2.4.6 simd:X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
RECORDED_ON_X86_V3 = "x86_64 python3.11 numpy2.4.6 simd:X86_V3"

# Batches of 300 end at 300, 600, 900 and 1000 (a partial batch): 300 and 600
# are batch boundaries, the others fall inside a batch.
CHECKPOINTS = [1, 50, 300, 323, 450, 600, 777, 1000]
# Budget 901 ends on a batch of one point, [900, 901).
FINAL_ONE_CHECKPOINTS = [1, 50, 300, 323, 450, 600, 777, 900, 901]
BOX = (np.full(3, -0.5), np.full(3, 0.8))
# Prefixes longer than the weighted sum's block of 1e5 rows, on both sides of
# it; the adaptive runs' batches of 1e5 end on block boundaries.
BLOCKED_CHECKPOINTS = [1, 60_000, 100_000, 100_001, 180_000, 250_000]


def _sphere_with_inf_region():
    """Sphere, with +inf wherever the first coordinate exceeds 2."""
    def f(P):
        v = np.sum(P * P, axis=1)
        v[P[:, 0] > 2.0] = np.inf
        return v
    return Objective(3, f, known_minimizer=np.zeros(3))


def _sphere_after_inf_prefix(count=350):
    """Sphere, except that the first ``count`` points ever evaluated are +inf."""
    seen = [0]

    def f(P):
        v = np.sum(P * P, axis=1)
        v[:max(0, count - seen[0])] = np.inf
        seen[0] += P.shape[0]
        return v
    return Objective(3, f, known_minimizer=np.zeros(3))


def _all_inf():
    return Objective(3, lambda P: np.full(P.shape[0], np.inf), known_minimizer=np.zeros(3))


# name -> (objective factory, budget, checkpoints, StaticConfig extras,
#          AdaptiveConfig extras)
CASES = {
    "sphere": (lambda: benchmark("sphere", 3), 1000, CHECKPOINTS, {}, {}),
    "sphere_mixture": (lambda: benchmark("sphere", 3), 1000, CHECKPOINTS,
                       {}, {"mixture_weight": 0.3}),
    "rastrigin_box": (lambda: benchmark("rastrigin", 3), 1000, CHECKPOINTS,
                      {}, {"projection_box": BOX, "mixture_weight": 0.3}),
    "ackley_fixed_alpha": (lambda: benchmark("ackley", 3), 1000, CHECKPOINTS,
                           {"fixed_alpha": 3.0}, {}),
    "inf_region": (_sphere_with_inf_region, 1000, CHECKPOINTS, {}, {}),
    "inf_first_batch": (_sphere_after_inf_prefix, 1000, CHECKPOINTS,
                        {}, {"mixture_weight": 0.3}),
    "all_inf": (_all_inf, 1000, CHECKPOINTS, {}, {}),
    "default_grid": (lambda: benchmark("sphere", 3), 3100, None, {}, {}),
    "sphere_mixture_d8": (lambda: benchmark("sphere", 8), 1000, CHECKPOINTS,
                          {}, {"mixture_weight": 0.3}),
    "rastrigin_d12": (lambda: benchmark("rastrigin", 12), 1000, CHECKPOINTS, {}, {}),
    "ackley_d1": (lambda: benchmark("ackley", 1), 1000, CHECKPOINTS, {}, {}),
    "one_batch": (lambda: benchmark("sphere", 3), 250, [1, 50, 123, 250], {}, {}),
    "final_batch_of_one": (lambda: benchmark("sphere", 3), 901, FINAL_ONE_CHECKPOINTS,
                           {}, {"mixture_weight": 0.3}),
    "box_all_drivers": (lambda: benchmark("rastrigin", 3), 1000, CHECKPOINTS,
                        {"projection_box": BOX}, {"projection_box": BOX}),
    "envelope_only": (lambda: benchmark("sphere", 3), 1000, CHECKPOINTS,
                      {}, {"mixture_weight": 1.0}),
    "blocked_sum": (lambda: benchmark("sphere", 3), 250_000, BLOCKED_CHECKPOINTS,
                    {}, {"batch_size": 100_000, "mixture_weight": 0.3}),
}

DRIVERS = {
    "liso": (run_liso, True),
    "random_search": (run_random_search, True),
    "adaptive_liso": (run_adaptive_liso, False),
    "adaptive_random_search": (run_adaptive_random_search, False),
    "isotropic_es": (run_isotropic_es, False),
}

GOLDEN = {
    "ackley_d1/adaptive_liso": "6e0acfa011af612d640556e4aaff82767b4884bb1ff7c2c1182b950591da2325",
    "ackley_d1/adaptive_random_search": "01d8d0079017942a25daa189ee3d2e34018c68ad919e92f6edd69680428cc463",
    "ackley_d1/isotropic_es": "1f88b9a49e7d203c41b50e4479b1ed7b7e68d16447d0a89152a3ddd20b3e1c3b",
    "ackley_d1/liso": "edd9d62470b2e0e66f38f5676b656f4d91d7e79fedf393ca525da6763e1ea0d2",
    "ackley_d1/random_search": "99247601ff5316cc286ae5fea508893f009918e8c2e0107ab83759c44fd14835",
    "ackley_fixed_alpha/adaptive_liso": "95129df3d344110e64541d90139adfa63981d461d84552e717d4a8837ee0f078",
    "ackley_fixed_alpha/adaptive_random_search": "51836f6bfd2f6e057126e2e3e6e45b9d57f89a9795105896203318353f5bfa9b",
    "ackley_fixed_alpha/isotropic_es": "f3535eec08d16ee90d772cef3d3fe107404ee93eece82268c0fb402cc71ae013",
    "ackley_fixed_alpha/liso": "e5a9bd619de12930a049ede81515932c82b93fdef181c53466b3e25021743bb4",
    "ackley_fixed_alpha/random_search": "5e9dd81f55ce670da7497a45a64f8fc23149c32c818789867671f85b239230e1",
    "all_inf/adaptive_liso": "35a94ccf60065751311d020cfcc8dbbcab1c4083ceef5d6bca49c67c7c69234c",
    "all_inf/adaptive_random_search": "a76207e1376b235987d33c6329f0e107f1e671c168052a1716451438b4b14944",
    "all_inf/isotropic_es": "3cd7b904734d3e804cafbfbef198e877c0880204fb9c9aaf8ada5df6487b0cf7",
    "all_inf/liso": "35a94ccf60065751311d020cfcc8dbbcab1c4083ceef5d6bca49c67c7c69234c",
    "all_inf/random_search": "a76207e1376b235987d33c6329f0e107f1e671c168052a1716451438b4b14944",
    "blocked_sum/adaptive_liso": "8770b026c5ff2af644c6efea05b36641b054b429827cfb6c6cbb2bacde81f342",
    "blocked_sum/adaptive_random_search": "39a6ff95a519f7b5a37c581b5a45856294fbbd27b52c46e4529154333eeb5160",
    "blocked_sum/isotropic_es": "25fed45453df6c6058919c9d9d6ff3306c806a526d2053f78d15ba2294113ce6",
    "blocked_sum/liso": "3ff93ae8db328c616b3582f1678cd4ab9c89ebe153e347478cc43f58671ec15b",
    "blocked_sum/random_search": "d07d81a2a4b8c190e611138990a06fd710732a86dc265cef2706afa70e1ba129",
    "box_all_drivers/adaptive_liso": "f7ecec5ed6a5b616c679a3e6cfb548e1b63a94c1a32c70322507116e0c6493b9",
    "box_all_drivers/adaptive_random_search": "52c2a881db261cc90056e3b128eb320b83939940763e071e6392cd418c921d49",
    "box_all_drivers/isotropic_es": "e8efb2c50f2f45c0bbee1633e3a2a07ffd8771fc602ad29b3007cab29d11f958",
    "box_all_drivers/liso": "7880cabfe8dbe4c1b48e340db92c7aeb7d9796e4927dbe927a837b2e17aeb01e",
    "box_all_drivers/random_search": "be45ab7fa8395970641616e06501184a5d5c0e813bde90d623a8a26883c06b0c",
    "default_grid/adaptive_liso": "90b0628ac0bed894986b632b4d383bb28626eeb101c7f3b5b776747d9eab8d69",
    "default_grid/adaptive_random_search": "de87144b9379f559ff047e7a7d0b895596d9fc1ecc9025c927c5ad1c4d299107",
    "default_grid/isotropic_es": "6be5088c8685dcb456f3b84bd213e97f67651f62a1acef2a05ad0e3bc27e5e74",
    "default_grid/liso": "b5734e6e1fea57b59c889886aa5e0b1426564c2663a065260dc3856b1a80af08",
    "default_grid/random_search": "58edf467969522c09fc24e191e22e2adc0ecc8ca354886bf9e4a8273d3929802",
    "envelope_only/adaptive_liso": "a0b6e20edd9edb2aa69fd4d10a9c42af25acc97a277d376cd151797b067eafa9",
    "envelope_only/adaptive_random_search": "f2e5df4c11f17416ac6b06562b55ae595eaa3d27495611426e733c127621a370",
    "envelope_only/isotropic_es": "e0033a6a617ce77d0fc2d1471338451330a57b2b1cfba0d2b6e7c35ccb51478a",
    "envelope_only/liso": "a0b6e20edd9edb2aa69fd4d10a9c42af25acc97a277d376cd151797b067eafa9",
    "envelope_only/random_search": "f2e5df4c11f17416ac6b06562b55ae595eaa3d27495611426e733c127621a370",
    "final_batch_of_one/adaptive_liso": "c6895694a66b567b4721abfa2cea1d8ea260bb43a7c560a94ba6086bb2772b9c",
    "final_batch_of_one/adaptive_random_search": "32ff7bbe5ab5aa6be3cfb63fb9818a960d618899b716b03f313c4b86860c4344",
    "final_batch_of_one/isotropic_es": "ae2bd4ce0d55021e870de4ec658b7a58b0f4ed1b7f5f634a9c41300545bc4a87",
    "final_batch_of_one/liso": "9f9c5b5f0c0c05933defbb05c42d1f673d043b64b5578cc74caad1f1b6858d46",
    "final_batch_of_one/random_search": "c06498d277bcf0ade3802ccf0c65c843c8e11d885f90dc1c6c7dd564ff344f7c",
    "inf_first_batch/adaptive_liso": "42602defd285cb83f3e3cdc0ef3aebcb696963a0b2461c4142970e35b64fe04a",
    "inf_first_batch/adaptive_random_search": "bbe41f650244796ab358abf7d47439335cef3107eef7cadd70e2ac826dbc3aa0",
    "inf_first_batch/isotropic_es": "69a05004472368b3e5f582b9e42773679df5b08288e8c96177d81cd2bf56ff76",
    "inf_first_batch/liso": "6d8d2f06b6f9ee5b21a7e3020f0c62339f271803589b7f73d9643ac696287545",
    "inf_first_batch/random_search": "08ea726acaf8d4dc834e360d80847b75b75626de05ba01334c78848e1c80d59d",
    "inf_region/adaptive_liso": "4d796a622f245b4edf1c6556ec4be807b0984d9054275685993c22cdb8f2994d",
    "inf_region/adaptive_random_search": "2680607889f9b2939c90f1767587bbd99655e7a59c21c79064b03898ca85039c",
    "inf_region/isotropic_es": "1ede650bea6d01de33ee23863c3be12f3ced9f04edd90d975898b334eb8be686",
    "inf_region/liso": "8fadfda0743d4960eaea356f3f3f650ff5d9733ca423eeeaee34065764220a5a",
    "inf_region/random_search": "f2e5df4c11f17416ac6b06562b55ae595eaa3d27495611426e733c127621a370",
    "one_batch/adaptive_liso": "3bd2a637398077b993ded760a446aa3555e544240a625001003f92c2eb28a60f",
    "one_batch/adaptive_random_search": "1de366e01eea9d4e8c64607baf894c8120900bab5786e5d56be2a5731e29068d",
    "one_batch/isotropic_es": "e5c853679757a4fd2f4cab839edc57af42217484ccfb93c70c651652521d31e9",
    "one_batch/liso": "3bd2a637398077b993ded760a446aa3555e544240a625001003f92c2eb28a60f",
    "one_batch/random_search": "1de366e01eea9d4e8c64607baf894c8120900bab5786e5d56be2a5731e29068d",
    "rastrigin_box/adaptive_liso": "451fc9d739810ee075d82a6db793c1cc8f38d612a8044005b341c98bb10405e0",
    "rastrigin_box/adaptive_random_search": "666e9a5328e017e11ce0134776183e4e2fe5c5e0cd53fa4c6271d334c0dc71ce",
    "rastrigin_box/isotropic_es": "e8efb2c50f2f45c0bbee1633e3a2a07ffd8771fc602ad29b3007cab29d11f958",
    "rastrigin_box/liso": "550712827041c58cc1631f71547264670d9c6f607926f07a514b2d7abcae992b",
    "rastrigin_box/random_search": "e510e3983939c4559628f7b8a4df1f65e32822d17152bedda3bd718cd155bf21",
    "rastrigin_d12/adaptive_liso": "abf083e6b1b7d3a6aec2cd9471b74dbef220b1fd12034600cb7c462858982136",
    "rastrigin_d12/adaptive_random_search": "0d1a1eb0a187719ceb9d17b384efb958baec996d092c3d656a8161e35d1e6ec1",
    "rastrigin_d12/isotropic_es": "1640cd414e4faab9baa39b2d6693e07476c2856a1a4d07f1cf50256096bbfbd9",
    "rastrigin_d12/liso": "a726da7701bcb6f74e6335fc17e52943e36e34a3d9a439756f7f07893e5e149d",
    "rastrigin_d12/random_search": "d5d3d029ab01c94c155c7b4e601c9d2c0173bf0526a599116d8c082afea8cf3d",
    "sphere/adaptive_liso": "cd0da75b664e4297bd1a3a4f16f246e0772d3c564ba16d9cc6ab9e14432c917d",
    "sphere/adaptive_random_search": "2680607889f9b2939c90f1767587bbd99655e7a59c21c79064b03898ca85039c",
    "sphere/isotropic_es": "e0033a6a617ce77d0fc2d1471338451330a57b2b1cfba0d2b6e7c35ccb51478a",
    "sphere/liso": "a0b6e20edd9edb2aa69fd4d10a9c42af25acc97a277d376cd151797b067eafa9",
    "sphere/random_search": "f2e5df4c11f17416ac6b06562b55ae595eaa3d27495611426e733c127621a370",
    "sphere_mixture/adaptive_liso": "90c818169cce4ce6728760cc5e4e8b604ea8754e3af06a91a0b0368fc68d1434",
    "sphere_mixture/adaptive_random_search": "fecc7027dcd9ac32386906dc8e5bb7b27946173ab97dd4c314b030a4d5c76a5d",
    "sphere_mixture/isotropic_es": "e0033a6a617ce77d0fc2d1471338451330a57b2b1cfba0d2b6e7c35ccb51478a",
    "sphere_mixture/liso": "a0b6e20edd9edb2aa69fd4d10a9c42af25acc97a277d376cd151797b067eafa9",
    "sphere_mixture/random_search": "f2e5df4c11f17416ac6b06562b55ae595eaa3d27495611426e733c127621a370",
    "sphere_mixture_d8/adaptive_liso": "9457b710b4503f9a7dc3bbfde708154823b3a21090c22bfcbbccbd4a995e802e",
    "sphere_mixture_d8/adaptive_random_search": "137abb122c6da28e999c3cb575b11c23fce63e8856a444c6c9f2ad5b13d8892b",
    "sphere_mixture_d8/isotropic_es": "9b54e59876e80b93dd271789e8d3fe6a007b1e1a78318fa634c45294fccbb4df",
    "sphere_mixture_d8/liso": "e64782ee07d65b5e26936cfaf194cff719ae6621e6bcfdafe3d098f3505b382b",
    "sphere_mixture_d8/random_search": "2fb9107a90575465bf07776ae9a1f8f22d2ddad4d330fb0db38f0377f31175c4",
}

# The AVX2 level's table: the digests above but for these five.
GOLDEN_X86_V3 = {
    **GOLDEN,
    "blocked_sum/adaptive_liso": "fc297d478681b7187e3d6deb764c19afaec89c269d503b8b798d83e1f179310a",
    "ackley_d1/adaptive_liso": "13a627df2948798444334c84a0d680dc8ab1922fff3fa02e1a50435bd80a7bb0",
    "ackley_fixed_alpha/adaptive_liso": "250826006892a14ddad776cd022d532cedbeb9baa0698d8f402e99bc20325a36",
    "default_grid/adaptive_liso": "3df498d7e4d9fa8965914ad75c643481f668fc0b49f445e4547963e5bcfa8475",
    "inf_first_batch/adaptive_liso": "8b5baf31a1ad1067e9c7c5a997ed9c04deb646fa8f3b2567062ef594be73f075",
}

TABLES = {RECORDED_ON: GOLDEN, RECORDED_ON_X86_V3: GOLDEN_X86_V3}


def run_case(case, driver_name):
    make_objective, budget, checkpoints, static_kw, adaptive_kw = CASES[case]
    driver, is_static = DRIVERS[driver_name]
    objective = make_objective()
    q0 = IsotropicGaussian(mean=np.full(objective.dimension, 2.0), variance=0.5)
    if is_static:
        config = StaticConfig(budget=budget, alpha0=1.0, q0=q0, seed=5,
                              checkpoints=checkpoints, **static_kw)
    else:
        config = AdaptiveConfig(budget=budget, alpha0=1.0, q0=q0, seed=5, sigma2=0.4,
                                checkpoints=checkpoints, **{"batch_size": 300, **adaptive_kw})
    estimate, trace = driver(objective, config)
    assert objective.eval_count == budget
    return estimate, trace


def trace_digest(estimate, trace):
    h = hashlib.sha256()
    for arr in (estimate, trace.estimates, trace.squared_errors, trace.ess):
        h.update(b"None" if arr is None else np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(b"1" if trace.degenerate_final else b"0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("driver_name", sorted(DRIVERS))
def test_trace_bytes_are_pinned(case, driver_name):
    table = TABLES.get(_fingerprint())
    if table is None:
        pytest.skip(f"digests recorded on {' and '.join(TABLES)}")
    assert trace_digest(*run_case(case, driver_name)) == table[f"{case}/{driver_name}"]


def test_cases_reach_the_paths_they_pin():
    # The degenerate fallback runs at the final checkpoint only when every
    # value is +inf, and at early checkpoints when the first batch is.
    _, trace = run_case("all_inf", "adaptive_liso")
    assert trace.degenerate_final
    _, trace = run_case("inf_first_batch", "adaptive_liso")
    assert not trace.degenerate_final
    # Points 1..350 are +inf, so checkpoints 1, 50, 300 and 323 fall back.
    assert np.isnan(trace.ess[:4]).all() and not np.isnan(trace.ess[4:]).any()
    _, trace = run_case("rastrigin_box", "adaptive_liso")
    assert np.any(trace.estimates == BOX[1]) or np.any(trace.estimates == BOX[0])
    for name in ("liso", "random_search"):
        _, trace = run_case("box_all_drivers", name)
        assert np.any(trace.estimates == BOX[1]) or np.any(trace.estimates == BOX[0])
    # A mixture of weight 1 draws every batch from q0, so the adaptive runs
    # read the static runs' stream and record the same traces.
    for adaptive, static in (("adaptive_liso", "liso"), ("adaptive_random_search", "random_search")):
        assert trace_digest(*run_case("envelope_only", adaptive)) == \
            trace_digest(*run_case("envelope_only", static))
    # The blocked case's weighted sums add more than one block of rows.
    _, budget, checkpoints, _, adaptive_kw = CASES["blocked_sum"]
    assert checkpoints[1] < _AVERAGE_BLOCK_ROWS < checkpoints[-2] < budget
    assert adaptive_kw["batch_size"] == _AVERAGE_BLOCK_ROWS
    # The ES recombines the one point of the last batch on its own.
    _, trace = run_case("final_batch_of_one", "isotropic_es")
    assert not np.array_equal(trace.estimates[-1], trace.estimates[-2])


if __name__ == "__main__":
    # Prints the GOLDEN table for the current tree.
    for case in sorted(CASES):
        for name in sorted(DRIVERS):
            print(f'    "{case}/{name}": "{trace_digest(*run_case(case, name))}",')
