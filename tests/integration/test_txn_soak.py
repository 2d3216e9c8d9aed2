"""Randomized transaction soak: serializability + crash atomicity
against a full value oracle.

Every round runs one transfer between random accounts; a randomized
subset of rounds crashes the committing client at a random post of its
commit and recovers with a fresh client. The oracle applies a transfer
iff the commit returned *or* recovery rolled it forward — afterwards every
balance must equal the oracle's and the total must be conserved, which
is exactly the all-or-nothing guarantee the commit record provides."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.fabric.errors import FabricError
from repro.fabric.wire import WORD, decode_u64, encode_u64

NODE_SIZE = 8 << 20
ACCOUNTS = 8
OPENING = 64
ROUNDS = 40
#: The most posts one transfer's commit makes (2 lock CAS, the seal, 2
#: write-back scatters, 2 unlocks, the tombstone); a crash drawn at or
#: past a commit's own post count lets the whole commit land.
COMMIT_POSTS = 8


class TestTxnSoak:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),  # seed
        st.integers(min_value=10, max_value=ROUNDS),  # rounds
    )
    def test_oracle_equivalence_through_crashes(self, seed, rounds):
        import random

        rng = random.Random(seed)
        cluster = Cluster(
            node_count=2, node_size=NODE_SIZE, extent_size=64 << 10
        )
        setup = cluster.client("setup")
        # Every round's client registers: size the array for all of them.
        space = cluster.txn_space(setup, max_clients=ROUNDS)
        # Spread accounts over several extents so transfers mix
        # single-slot and multi-slot (multi-run) commits.
        cells = []
        for i in range(ACCOUNTS):
            cells.append(cluster.allocator.alloc(WORD + 16))
            if i % 3 == 2:
                cluster.allocator.alloc(64 << 10)
        oracle = [OPENING] * ACCOUNTS
        for addr in cells:
            space.init_cell(setup, addr, encode_u64(OPENING))

        crashes = rollforwards = 0
        for round_no in range(rounds):
            src, dst = rng.sample(range(ACCOUNTS), 2)
            amount = rng.randint(1, 16)
            client = cluster.client(f"w{round_no}")
            space.register(client)  # so the commit's posts are its own
            crash_at = rng.randint(0, COMMIT_POSTS) if rng.random() < 0.4 else None

            txn = space.begin(client)
            committed = False
            try:
                src_bal = decode_u64(space.read(client, txn, cells[src], WORD))
                dst_bal = decode_u64(space.read(client, txn, cells[dst], WORD))
                moved = min(amount, src_bal)
                space.write(client, txn, cells[src], encode_u64(src_bal - moved))
                space.write(client, txn, cells[dst], encode_u64(dst_bal + moved))
                if crash_at is not None:
                    client.crash_after(crash_at)
                space.commit(client, txn)
                committed = True
            except FabricError:
                crashes += 1
                surgeon = cluster.client(f"surgeon{round_no}")
                report = space.recover(surgeon, client.client_id)
                if report.action == "rollforward":
                    committed = True
                    rollforwards += 1
            if committed:
                oracle[src] -= moved
                oracle[dst] += moved

        auditor = cluster.client("audit")
        balances = [
            decode_u64(auditor.read_verified(addr, WORD)[1]) for addr in cells
        ]
        assert balances == oracle, (
            f"seed={seed} crashes={crashes} rollforwards={rollforwards}"
        )
        assert sum(balances) == ACCOUNTS * OPENING
        # Every version word is unlocked (even) after the dust settles.
        for addr in cells:
            slot = space.slot_for_addr(addr)
            word = decode_u64(auditor.read(space.version_addr(slot), WORD))
            assert word % 2 == 0
