"""The ramped uniform blocks: the stream must not depend on block sizes."""
import numpy as np
import pytest

from zrhydro.rng import BLOCK, FIRST_BLOCK, UniformBlock, replica_stream


def _drawn(ub, k):
    """The first ``k`` uniforms of ``ub`` and the block sizes it drew."""
    sizes = [len(ub._buf)]
    out = []
    for _ in range(k):
        buf = ub._buf
        out.append(ub.next())
        if ub._buf is not buf:
            sizes.append(len(ub._buf))
    return np.array(out), sizes


@pytest.mark.parametrize("k", [1, FIRST_BLOCK - 1, FIRST_BLOCK,
                               FIRST_BLOCK + 1, 7 * FIRST_BLOCK + 5,
                               BLOCK + 3, 2 * BLOCK + 12345])
def test_stream_is_one_draw_and_state_follows_blocks(k):
    ub = UniformBlock(replica_stream(5, 2))
    got, sizes = _drawn(ub, k)
    want = replica_stream(5, 2).random(k)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    # the generator has moved past exactly the blocks drawn
    fresh = replica_stream(5, 2)
    fresh.random(sum(sizes))
    assert (repr(ub._gen.bit_generator.state)
            == repr(fresh.bit_generator.state))


def test_blocks_double_up_to_block():
    _, sizes = _drawn(UniformBlock(replica_stream(1, 0)), 3 * BLOCK)
    ramp = [FIRST_BLOCK]
    while ramp[-1] < BLOCK:
        ramp.append(min(2 * ramp[-1], BLOCK))
    assert sizes[:len(ramp)] == ramp
    assert set(sizes[len(ramp):]) == {BLOCK}


def test_first_block_is_small():
    # the uniform after the first block shows how far construction read
    # the generator
    gen = replica_stream(9, 4)
    ub = UniformBlock(gen)
    ub.next()
    after = gen.random()
    ahead = np.flatnonzero(replica_stream(9, 4).random(1025) == after)
    assert ahead.size == 1 and ahead[0] <= 1024


@pytest.mark.parametrize("want,k", [(0, 300), (100, 50), (1000, 1000),
                                    (1000, 5000), (3 * BLOCK + 7, 3 * BLOCK)])
def test_planned_stream_is_one_draw_and_state_follows_blocks(want, k):
    ub = UniformBlock(replica_stream(5, 2))
    ub.next()
    ub.plan(want)
    got, sizes = _drawn(ub, k)
    want_stream = replica_stream(5, 2).random(k + 1)[1:]
    assert ([x.hex() for x in got.tolist()]
            == [x.hex() for x in want_stream.tolist()])
    fresh = replica_stream(5, 2)
    fresh.random(sum(sizes))
    assert (repr(ub._gen.bit_generator.state)
            == repr(fresh.bit_generator.state))


def test_planned_blocks_are_the_remainder_then_the_ramp():
    ub = UniformBlock(replica_stream(1, 0))
    for _ in range(100):
        ub.next()
    want = 2 * BLOCK + 1000
    ub.plan(want)
    _, sizes = _drawn(ub, want + 3 * BLOCK)
    # the first block's 156 unread uniforms count toward the plan
    rest = want - (FIRST_BLOCK - 100)
    assert sizes[:4] == [FIRST_BLOCK, BLOCK, BLOCK, rest - 2 * BLOCK]
    ramp = [sizes[3]]
    while ramp[-1] < BLOCK:
        ramp.append(min(2 * ramp[-1], BLOCK))
    assert sizes[4:4 + len(ramp) - 1] == ramp[1:]
    assert set(sizes[3 + len(ramp):]) == {BLOCK}


def test_a_new_plan_replaces_the_last():
    ub = UniformBlock(replica_stream(1, 0))
    ub.plan(10 * BLOCK)
    ub.plan(FIRST_BLOCK + 40)
    _, sizes = _drawn(ub, FIRST_BLOCK + 1)
    assert sizes == [FIRST_BLOCK, 40]
    ub.plan(0)
    _, sizes = _drawn(ub, 40)
    assert sizes == [40, 80]
