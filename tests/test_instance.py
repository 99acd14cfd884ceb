import random

import pytest

from talentsched import (
    Instance,
    InstanceFormatError,
    actors_of_scenes,
    generate_instance,
    parse_instance,
    write_instance,
)
from talentsched.instance import bits, mask_of
from talentsched.testkit import fixture_worked_example

WORKED_EXAMPLE_TEXT = """\
12 6
X.X..X.XXXXX 20
XXXXX.X.X.X. 5
.X....XX.... 4
XX..XX...... 10
...X...XX... 4
.........X.. 7
1 1 2 1 3 1 1 2 1 2 1 1
"""


def test_parse_worked_example():
    inst = parse_instance(WORKED_EXAMPLE_TEXT)
    assert inst.num_scenes == 12
    assert inst.num_actors == 6
    assert inst.durations == (1, 1, 2, 1, 3, 1, 1, 2, 1, 2, 1, 1)
    assert inst.wages == (20, 5, 4, 10, 4, 7)
    assert inst == fixture_worked_example()
    # spot checks against the matrix
    assert inst.requires(0, 0) and not inst.requires(0, 1)
    assert inst.scene_actors[9] == mask_of([0, 5])


def test_parse_minimal():
    inst = parse_instance("1 1\nX 5\n1\n")
    assert inst.num_scenes == 1 and inst.num_actors == 1
    assert inst.wages == (5,) and inst.durations == (1,)


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\n\n1 1\n# row comment\nX 5\n1\n"
    assert parse_instance(text) == parse_instance("1 1\nX 5\n1\n")


def test_write_round_trip_canonical():
    assert write_instance(parse_instance(WORKED_EXAMPLE_TEXT)) == WORKED_EXAMPLE_TEXT


def test_write_minimal_three_lines():
    text = write_instance(parse_instance("1 1\nX 5\n1\n"))
    assert text == "1 1\nX 5\n1\n"


def test_generated_round_trip():
    sizes = [(1 + seed % 12, 1 + (seed * 7) % 10, seed) for seed in range(50)]
    for n, m, seed in sizes + [(64, 64, 50)]:  # the format's largest instance
        inst = generate_instance(n, m, seed=seed, density=0.4)
        text = write_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert write_instance(again) == text


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("", 1, "empty"),
        ("1\nX 5\n1\n", 1, "header"),
        ("1 banana\nX 5\n1\n", 1, "two integers"),
        ("0 1\nX 5\n1\n", 1, "1..64"),
        ("1 65\nX 5\n1\n", 1, "1..64"),
        ("2 1\nX 5\n1 1\n", 2, "cells"),
        ("1 1\nXX 5\n1\n", 2, "expected 1"),
        ("1 1\nQ 5\n1\n", 2, "unknown cell"),
        ("1 1\nX -3\n1\n", 2, "wage"),
        ("1 1\nX 5\n0\n", 3, "duration"),
        ("1 1\nX 5\n-1\n", 3, "duration"),
        ("1 1\nX 5\n1 2\n", 3, "durations"),
        ("1 1\nX 5\n", 2, "content lines"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_generate_deterministic():
    a = generate_instance(16, 8, seed=1, density=0.3, max_duration=5, max_wage=50)
    b = generate_instance(16, 8, seed=1, density=0.3, max_duration=5, max_wage=50)
    assert a == b
    assert a.num_scenes == 16 and a.num_actors == 8


def test_generate_density_one_fills_matrix():
    inst = generate_instance(6, 4, seed=3, density=1.0)
    assert all(a == inst.all_actors for a in inst.scene_actors)


def test_generate_every_scene_has_an_actor():
    for seed in range(20):
        inst = generate_instance(20, 10, seed=seed, density=0.05)
        assert all(a != 0 for a in inst.scene_actors)


def test_generate_seeds_differ():
    a = generate_instance(16, 8, seed=1, density=0.3)
    b = generate_instance(16, 8, seed=2, density=0.3)
    assert a.scene_actors != b.scene_actors


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_scenes": 0, "num_actors": 4, "seed": 1},
        {"num_scenes": 65, "num_actors": 4, "seed": 1},
        {"num_scenes": 4, "num_actors": 0, "seed": 1},
        {"num_scenes": 4, "num_actors": 4, "seed": 1, "density": 0.0},
        {"num_scenes": 4, "num_actors": 4, "seed": 1, "density": 1.5},
        {"num_scenes": 4, "num_actors": 4, "seed": 1, "max_duration": 0},
    ],
)
def test_generate_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        generate_instance(**kwargs)


def test_instance_invariants_enforced():
    with pytest.raises(ValueError):
        Instance(1, 1, (0,), (0,), (1,))  # zero duration
    with pytest.raises(ValueError):
        Instance(1, 1, (0,), (1,), (-1,))  # negative wage
    with pytest.raises(ValueError):
        Instance(1, 1, (0b10,), (1,), (1,))  # actor bit out of range


def test_actors_of_scenes_examples():
    inst = fixture_worked_example()
    assert actors_of_scenes(inst, 1 << 9) == mask_of([0, 5])  # tenth scene
    assert actors_of_scenes(inst, 0) == 0


def test_actors_of_scenes_matches_loop_oracle():
    rng = random.Random(5)
    inst = generate_instance(14, 9, seed=9, density=0.35)
    for _ in range(50):
        q = rng.getrandbits(inst.num_scenes)
        expect = 0
        for j in bits(q):
            expect |= inst.scene_actors[j]
        assert actors_of_scenes(inst, q) == expect


def test_actors_of_scenes_monotone():
    inst = generate_instance(12, 8, seed=2, density=0.3)
    rng = random.Random(1)
    for _ in range(50):
        q2 = rng.getrandbits(inst.num_scenes)
        q1 = q2 & rng.getrandbits(inst.num_scenes)
        a1, a2 = actors_of_scenes(inst, q1), actors_of_scenes(inst, q2)
        assert a1 & ~a2 == 0


def test_bits_matches_a_naive_scan():
    def naive(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    rng = random.Random(11)
    masks = [0, 1, 1 << 63, 2**64 - 1, 1 << 64 | 1, 1 << 100]
    masks += [rng.getrandbits(rng.randint(1, 64)) for _ in range(500)]
    for mask in masks:
        assert bits(mask) == naive(mask), mask
    with pytest.raises(ValueError):
        bits(-1)
