#!/usr/bin/env python
"""Bank transfers with optimistic far-memory transactions (repro.txn).

Classic money-movement over one-sided far memory: every account is a
framed cell, every transfer debits one account and credits another, and
the invariant — the total balance never changes — must hold through
contention, injected fabric faults, and clients crashing mid-commit:

1. a fleet of tellers runs transfers through ``TxnSpace.run`` (begin,
   read both balances, buffer the writes, pipelined OCC commit);
2. two tellers race for the same account: the loser's validation fails,
   its abort is free (nothing was visible), and the retry wins;
3. a seeded fault burst (timeouts + latency spikes) hits the fabric
   while transfers keep flowing through the retry ladder;
4. a teller crashes *after sealing its commit record* — recovery rolls
   the transfer forward; another crashes *holding locks but unsealed* —
   recovery rolls it back. Either way: no torn balances, total intact.

Run:  python examples/bank_transfer.py
"""

from repro import Cluster
from repro.fabric import FaultPlan, RetryPolicy
from repro.fabric.errors import FabricError
from repro.fabric.wire import WORD, decode_u64, encode_u64

ACCOUNTS = 12
OPENING = 100
SEED = 2026
TOTAL = ACCOUNTS * OPENING


def audit(client, space, cells) -> list[int]:
    """Read every balance in one read-only transaction (the validation
    pass proves the snapshot was consistent, and the tracking FAAs
    release the audit's reads into the version words — later transfers
    are ordered after it, so the audit races with nothing)."""

    def body(txn):
        return [
            decode_u64(space.read(client, txn, addr, WORD)) for addr in cells
        ]

    balances = space.run(client, body)
    assert sum(balances) == TOTAL, f"money leaked: {sum(balances)} != {TOTAL}"
    assert all(balance >= 0 for balance in balances)
    return balances


def transfer(space, client, cells, src, dst, amount):
    """One transactional transfer, retried on conflict."""

    def body(txn):
        src_bal = decode_u64(space.read(client, txn, cells[src], WORD))
        dst_bal = decode_u64(space.read(client, txn, cells[dst], WORD))
        moved = min(amount, src_bal)  # never overdraw
        space.write(client, txn, cells[src], encode_u64(src_bal - moved))
        space.write(client, txn, cells[dst], encode_u64(dst_bal + moved))
        return moved

    return space.run(client, body)


def main() -> None:
    cluster = Cluster(node_count=2, node_size=16 << 20)
    bank = cluster.client("bank")
    space = cluster.txn_space(bank)
    cells = [cluster.allocator.alloc(WORD + 16) for _ in range(ACCOUNTS)]
    for addr in cells:
        space.init_cell(bank, addr, encode_u64(OPENING))
    print(f"opened {ACCOUNTS} accounts x {OPENING} = {TOTAL} total")

    # -- phase 1: a fleet of tellers moves money -------------------------
    tellers = [cluster.client(f"teller{i}") for i in range(3)]
    import random

    rng = random.Random(SEED)
    moved = 0
    for i in range(40):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        moved += transfer(space, tellers[i % 3], cells, src, dst, rng.randint(1, 30))
    commits = sum(t.metrics.txn_commits for t in tellers)
    audit(bank, space, cells)
    print(
        f"phase 1: 40 transfers ({moved} moved) by 3 tellers, "
        f"{commits} commits, 0 conflicts, total intact"
    )

    # -- phase 2: two tellers race for one account -----------------------
    a, b = tellers[0], tellers[1]
    txn = space.begin(a)
    bal0 = decode_u64(space.read(a, txn, cells[0], WORD))
    bal1 = decode_u64(space.read(a, txn, cells[1], WORD))
    # b commits a rival transfer on account 0 between a's reads and commit.
    transfer(space, b, cells, 0, 1, 5)
    space.write(a, txn, cells[0], encode_u64(bal0 - 1))
    space.write(a, txn, cells[1], encode_u64(bal1 + 1))
    try:
        space.commit(a, txn)
        raise AssertionError("stale read set must fail validation")
    except FabricError as err:
        print(f"phase 2: rival won, loser aborted cleanly ({err})")
    transfer(space, a, cells, 0, 1, 1)  # the retry wins
    audit(bank, space, cells)
    print(
        f"phase 2: conflicts={a.metrics.txn_conflicts} "
        f"aborts={a.metrics.txn_aborts} -> retried, total intact"
    )

    # -- phase 3: fault burst through the retry ladder -------------------
    hardened = cluster.client("hardened", retry_policy=RetryPolicy(max_attempts=6))
    cluster.inject_faults(
        seed=SEED,
        plan=FaultPlan().random_timeouts(0.01).random_spikes(0.01, multiplier=4.0),
    )
    for i in range(30):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        transfer(space, hardened, cells, src, dst, rng.randint(1, 20))
    cluster.fabric.set_fault_injector(None)
    audit(bank, space, cells)
    print(
        f"phase 3: 30 transfers under injected faults "
        f"(timeouts={hardened.metrics.timeouts}, "
        f"retries={hardened.metrics.retries}), total intact"
    )

    # -- phase 4: crash mid-commit, recover, no torn balances ------------
    # A victim's transfer posts 4 reads, then its commit registers (one CAS
    # per slot probed: 5 for the first victim, 6 for the second), locks the
    # one slot guarding both accounts and seals. So 11 posts land before
    # the first victim dies past its seal, and the second holding its lock.
    surgeon = cluster.client("surgeon")
    for phase, direction in (("after_seal", "rollforward"), ("after_lock", "rollback")):
        victim = cluster.client(f"victim-{phase}")
        before = audit(bank, space, cells)
        victim.crash_after(11)
        try:
            transfer(space, victim, cells, 2, 3, 7)
            raise AssertionError("victim should have crashed mid-commit")
        except FabricError:
            pass
        report = space.recover(surgeon, victim.client_id)
        assert report.action == direction, report
        after = audit(bank, space, cells)
        changed = after != before
        assert changed == (direction == "rollforward")
        print(
            f"phase 4: crash at {phase} -> {report.action} "
            f"({report.slots_released} locks released, "
            f"{report.cells_written} cells completed), total intact"
        )

    balances = audit(bank, space, cells)
    print(f"\nfinal balances: {balances} (sum {sum(balances)})")
    print(
        f"totals: commits={sum(c.metrics.txn_commits for c in cluster.clients)}, "
        f"aborts={sum(c.metrics.txn_aborts for c in cluster.clients)}, "
        f"rollforwards={surgeon.metrics.txn_rollforwards}, "
        f"rollbacks={surgeon.metrics.txn_rollbacks}"
    )
    print("every crash healed; not one unit of money created or destroyed.")


if __name__ == "__main__":
    main()
