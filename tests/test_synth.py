import numpy as np
import pytest

from smallprop.annotations import SizeCategory
from smallprop.masks import rle_decode
from smallprop.prng import SplitMix64, prng_next, stream_seed
from smallprop.synth import (
    Scene,
    SceneSpec,
    generate_scene,
    list_scene_stems,
    load_scene,
    save_scene,
    scene_stem,
)
from oracles import ref_splitmix64


def test_splitmix64_reference_vectors():
    value, state = prng_next(0)
    assert value == 0xE220A8397B1DCDAF
    value2, _ = prng_next(state)
    assert value2 == 0x6E789E6AA1B965F4


def test_splitmix64_matches_reference_stream():
    rng = SplitMix64(987654321)
    assert [rng.next_u64() for _ in range(50)] == ref_splitmix64(987654321, 50)


def test_distinct_seeds_distinct_outputs():
    assert prng_next(1)[0] != prng_next(2)[0]


def test_stream_seed_depends_on_every_key():
    base = stream_seed(5, 1, 2, 3)
    assert base != stream_seed(5, 1, 2, 4)
    assert base != stream_seed(5, 2, 1, 3)
    assert base != stream_seed(6, 1, 2, 3)


def test_random_draws_in_unit_interval():
    rng = SplitMix64(3)
    for _ in range(100):
        assert 0.0 <= rng.random() < 1.0
    for _ in range(100):
        assert -2 <= rng.randint(-2, 2) <= 2


def test_no_apples_gives_empty_scene():
    spec = SceneSpec(width=64, height=48, n_apples=0, n_leaves=0, seed=1)
    scene = generate_scene(spec)
    assert scene.objects == []
    assert not scene.instances.labels.any()
    # only the background is drawn: one shade per row, from the stream's first draws
    for y, value in enumerate(ref_splitmix64(spec.seed, spec.height)):
        shade = value % 19  # randint(0, 18)
        assert scene.image.pixels[y].tolist() == [[30 + shade, 66 + shade, 36 + shade // 2]] * spec.width


def test_generation_is_deterministic():
    spec = SceneSpec(width=200, height=150, n_apples=12, n_leaves=6, seed=99)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
    assert a.instances.labels.tobytes() == b.instances.labels.tobytes()
    assert [(o.instance_id, o.mask.runs) for o in a.objects] == [
        (o.instance_id, o.mask.runs) for o in b.objects
    ]


def test_xs_fraction_near_target():
    scene = generate_scene(SceneSpec(n_apples=200, xs_fraction=0.51, seed=42))
    frac = sum(1 for o in scene.objects if o.category is SizeCategory.XS) / len(scene.objects)
    assert 0.40 <= frac <= 0.62


def test_min_visible_filters_fragments():
    spec = SceneSpec(width=400, height=300, n_apples=30, n_leaves=40, min_visible=16, seed=5)
    scene = generate_scene(spec)
    assert all(o.area >= 16 for o in scene.objects)
    # removed ids are gone from the map as well
    present = set(np.unique(scene.instances.labels)) - {0}
    assert present == {o.instance_id for o in scene.objects}


def test_instances_are_disjoint_and_within_canvas():
    scene = generate_scene(SceneSpec(width=300, height=200, n_apples=25, n_leaves=10, seed=8))
    total = sum(o.area for o in scene.objects)
    assert total == int((scene.instances.labels != 0).sum())
    stack = np.zeros((200, 300), int)
    for o in scene.objects:
        stack += rle_decode(o.mask)
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


def test_apple_count_fits_16_bit_instance_ids():
    SceneSpec(n_apples=0xFFFF)
    with pytest.raises(ValueError, match="16-bit"):
        SceneSpec(n_apples=0x10000)


def test_scene_files_roundtrip(tmp_path):
    scene = generate_scene(SceneSpec(width=96, height=64, n_apples=6, n_leaves=3, seed=11))
    names = save_scene(scene, tmp_path, scene_stem(11, 0))
    assert names == ("scene_11_0000.ppm", "scene_11_0000.pgm")
    assert list_scene_stems(tmp_path) == ["scene_11_0000"]
    again = load_scene(tmp_path, "scene_11_0000", with_image=True)
    assert np.array_equal(again.instances.labels, scene.instances.labels)
    assert np.array_equal(again.image.pixels, scene.image.pixels)
    assert [(o.instance_id, o.area) for o in again.objects] == [
        (o.instance_id, o.area) for o in scene.objects
    ]
