import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smallprop.annotations import SizeCategory, size_category
from smallprop.prng import randint, random, splitmix64_block, stream_seed
from smallprop.raster import read_pnm
from smallprop.synth import (
    Scene,
    SceneSpec,
    generate_scene,
    list_scene_stems,
    load_scene,
    save_scene,
    scene_seed,
    scene_stem,
)
from oracles import mask_grid, ref_scene, ref_splitmix64, ref_stream_seed


def test_splitmix64_reference_vectors():
    assert splitmix64_block(0, 2).tolist() == ref_splitmix64(0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_splitmix64_matches_reference_stream():
    # an array of seeds gives one row of draws per seed
    seeds = [987654321, 0, 2**64 - 1, 2**63]
    block = splitmix64_block(np.array(seeds, dtype=np.uint64), 50)
    assert block.dtype == np.uint64 and block.shape == (4, 50)
    assert block.tolist() == [ref_splitmix64(seed, 50) for seed in seeds]


@pytest.mark.parametrize("seed", [0, 987654321, 2**64 - 1, -1, -(2**70) + 3])
@pytest.mark.parametrize("n", [0, 1, 50])
def test_splitmix64_block_matches_reference_stream(seed, n):
    block = splitmix64_block(seed, n)
    assert block.dtype == np.uint64
    assert block.tolist() == ref_splitmix64(seed, n)


def test_distinct_seeds_distinct_outputs():
    assert splitmix64_block(1, 1)[0] != splitmix64_block(2, 1)[0]


def test_stream_seed_depends_on_every_key():
    base = stream_seed(5, 1, 2, 3)
    assert base != stream_seed(5, 1, 2, 4)
    assert base != stream_seed(5, 2, 1, 3)
    assert base != stream_seed(6, 1, 2, 3)


@settings(max_examples=50, deadline=None)
@given(base=st.integers(-(2**70), 2**70), keys=st.lists(st.integers(0, 2**64 - 1), max_size=3))
def test_stream_seed_of_ints_is_an_int(base, keys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's scalars would warn when a product wraps
        seed = stream_seed(base, *keys)
    assert type(seed) is int and seed == ref_stream_seed(base, *keys)


def test_stream_seed_of_arrays_is_each_elements(recwarn):
    # arrays broadcast against each other and against ints, element by element
    xs = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    ys = np.array([[7], [2**62]], dtype=np.int64)
    seeds = stream_seed(2**64 + 5, xs, ys)
    assert seeds.dtype == np.uint64 and seeds.shape == (2, 5)
    assert seeds.tolist() == [[ref_stream_seed(5, x, y) for x in xs.tolist()] for y in (7, 2**62)]
    assert not recwarn.list


def test_random_draws_in_unit_interval():
    draws = ref_splitmix64(3, 200)
    assert all(0.0 <= random(u) < 1.0 for u in draws)
    assert {randint(u, -2, 2) for u in draws} == {-2, -1, 0, 1, 2}
    # a uint64 array of draws gives each draw's float
    assert random(np.array(draws, dtype=np.uint64)).tolist() == [random(u) for u in draws]


def test_no_apples_gives_empty_scene():
    spec = SceneSpec(width=64, height=48, n_apples=0, n_leaves=0, seed=1)
    scene = generate_scene(spec)
    assert scene.objects == []
    assert not scene.instances.pixels.any()
    # only the background is drawn: one shade per row, from the stream's first draws
    for y, value in enumerate(ref_splitmix64(spec.seed, spec.height)):
        shade = value % 19  # randint(0, 18)
        assert scene.image.pixels[y].tolist() == [[30 + shade, 66 + shade, 36 + shade // 2]] * spec.width


def test_generation_is_deterministic():
    spec = SceneSpec(width=200, height=150, n_apples=12, n_leaves=6, seed=99)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
    assert a.instances.pixels.tobytes() == b.instances.pixels.tobytes()
    assert [(o.instance_id, o.mask.runs) for o in a.objects] == [
        (o.instance_id, o.mask.runs) for o in b.objects
    ]


def test_xs_fraction_near_target():
    scene = generate_scene(SceneSpec(n_apples=200, xs_fraction=0.51, seed=42))
    frac = sum(1 for o in scene.objects if size_category(o.mask.area) is SizeCategory.XS) / len(scene.objects)
    assert 0.40 <= frac <= 0.62


def test_min_visible_filters_fragments():
    spec = SceneSpec(width=400, height=300, n_apples=30, n_leaves=40, min_visible=16, seed=5)
    scene = generate_scene(spec)
    assert all(o.mask.area >= 16 for o in scene.objects)
    # removed ids are gone from the map as well
    present = set(np.unique(scene.instances.pixels)) - {0}
    assert present == {o.instance_id for o in scene.objects}


def test_instances_are_disjoint_and_within_canvas():
    scene = generate_scene(SceneSpec(width=300, height=200, n_apples=25, n_leaves=10, seed=8))
    total = sum(o.mask.area for o in scene.objects)
    assert total == int((scene.instances.pixels != 0).sum())
    stack = np.zeros((200, 300), int)
    for o in scene.objects:
        stack += mask_grid(o.mask)
    assert stack.max() <= 1


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SceneSpec(width=0, height=10)
    with pytest.raises(ValueError):
        SceneSpec(radius_min=1.0)
    with pytest.raises(ValueError):
        SceneSpec(radius_min=10, radius_max=5)
    with pytest.raises(ValueError):
        SceneSpec(xs_fraction=1.5)
    # NaN fails every comparison; each radius is named by the check it fails
    with pytest.raises(ValueError, match="radius_min must be at least 2"):
        SceneSpec(radius_min=math.nan)
    with pytest.raises(ValueError, match="radius_max must be >= radius_min"):
        SceneSpec(radius_max=math.nan)
    with pytest.raises(ValueError, match="radius_max must be finite"):
        SceneSpec(radius_min=math.inf, radius_max=math.inf)
    # a finite radius whose square overflows: the disk rasterizer squares it
    with pytest.raises(ValueError, match="radius_max must be finite and have a finite square"):
        SceneSpec(radius_min=1e300, radius_max=1e301)
    SceneSpec(radius_min=1e150, radius_max=1.3e154)  # its square is finite


def test_apple_count_fits_16_bit_instance_ids():
    SceneSpec(n_apples=0xFFFF)
    with pytest.raises(ValueError, match="16-bit"):
        SceneSpec(n_apples=0x10000)


def test_scene_files_roundtrip(tmp_path):
    scene = generate_scene(SceneSpec(width=96, height=64, n_apples=6, n_leaves=3, seed=11))
    names = save_scene(scene, tmp_path, scene_stem(11, 0))
    assert names == ("scene_11_0000.ppm", "scene_11_0000.pgm")
    assert list_scene_stems(tmp_path) == ["scene_11_0000"]
    again = load_scene(tmp_path, "scene_11_0000")
    assert np.array_equal(again.instances.pixels, scene.instances.pixels)
    assert np.array_equal(read_pnm(tmp_path / "scene_11_0000.ppm").pixels, scene.image.pixels)
    assert [(o.instance_id, o.mask.area) for o in again.objects] == [
        (o.instance_id, o.mask.area) for o in scene.objects
    ]


# SHA-256 over each group's scenes in order: pixels, labels, then every
# object's (instance_id, runs). Changing any of these is a behaviour change.
_PINNED_SCENES = {
    "seed42_defaults": (
        [SceneSpec(seed=scene_seed(42, i)) for i in range(30)],
        "5c489cae0ee06265b85df13b92f111e7af891de4c69e49e5c2f996361a5c03e3",
    ),
    "large_cluttered": (
        [SceneSpec(width=2560, height=1440, n_apples=320, n_leaves=960, seed=7)],
        "61e069b90f0ac0531b15ff124ddda164ddb9ff4458ada92c821c8c370aa3a0b8",
    ),
    "cluttered_50x40": (
        [SceneSpec(width=50, height=40, n_apples=12, n_leaves=i % 5, radius_min=2,
                   radius_max=9, min_visible=4, seed=1000 + i) for i in range(50)],
        "4db29db9725b60f6a9256e38bcfb0b67b5e3eb89baca7d826dd5fce19f09fe03",
    ),
    "tiny_7x5": (
        [SceneSpec(width=7, height=5, n_apples=3, n_leaves=i % 2, radius_min=2,
                   radius_max=4, min_visible=1, seed=2000 + i) for i in range(20)],
        "eddf7eecfcac1b08dc22e9836bf8062c3d34af2910bd08f66f37f9e33b510bd4",
    ),
    "empty": (
        [SceneSpec(width=33, height=21, n_apples=0, n_leaves=0, seed=3)],
        "808f49a146650d6d49c3212e7734c182af99b2fe40fe8d9f9988be7553ad01c9",
    ),
    # radii up to 60 on a 160x120 canvas: shapes cross every edge
    "overflowing": (
        [SceneSpec(width=160, height=120, n_apples=40, n_leaves=10, radius_min=2,
                   radius_max=60, xs_fraction=0.3, min_visible=1, seed=s) for s in (11, 12)],
        "55ab23af256ba24b77a4b51e21fb162096919dc5f89d28b0dc8fa65de077c3c0",
    ),
}


@pytest.mark.parametrize("group", sorted(_PINNED_SCENES))
def test_generated_scenes_match_pinned_digest(group):
    specs, expected = _PINNED_SCENES[group]
    digest = hashlib.sha256()
    for spec in specs:
        scene = generate_scene(spec)
        digest.update(scene.image.pixels.tobytes())
        digest.update(scene.instances.pixels.tobytes())
        for o in scene.objects:
            digest.update(repr((o.instance_id, o.mask.runs)).encode())
    assert digest.hexdigest() == expected


scene_specs = st.builds(
    SceneSpec,
    width=st.integers(1, 90),
    height=st.integers(1, 70),
    n_apples=st.integers(0, 25),
    radius_min=st.sampled_from([2.0, 3.0, 12.0, 13.3, 20.0]),
    radius_max=st.sampled_from([24.0, 60.0, 120.0]),
    xs_fraction=st.sampled_from([0.0, 0.51, 1.0]),
    n_leaves=st.integers(0, 6),
    min_visible=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
)


@settings(max_examples=150, deadline=None)
@given(scene_specs)
@example(SceneSpec(width=9, height=7, n_apples=0, n_leaves=3, seed=1))
@example(SceneSpec(width=40, height=30, n_apples=6, n_leaves=0, xs_fraction=1.0, radius_max=120.0, seed=2))
@example(SceneSpec(width=40, height=30, n_apples=6, n_leaves=1, xs_fraction=0.0, radius_min=14.0,
                   radius_max=14.0, min_visible=0, seed=2**64 - 1))
def test_generate_scene_matches_row_loop_oracle(spec):
    scene = generate_scene(spec)
    pixels, labels = ref_scene(spec)
    assert np.array_equal(scene.image.pixels, pixels)
    assert np.array_equal(scene.instances.pixels, labels)
    assert {o.instance_id for o in scene.objects} == set(np.unique(labels).tolist()) - {0}
