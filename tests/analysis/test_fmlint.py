"""fmlint rule tests: one bad and one good fixture per code, the layering
table (its rows, its exemptions, its DESIGN.md copy), suppression handling
and the repo-wide cleanliness gate."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.fmcost import analyze_paths, build_certificate
from repro.analysis.fmlint import (
    LAYERING,
    RULES,
    _exempt_codes,
    lint_file,
    lint_paths,
    lint_source,
    render_rules,
)

REPO = Path(__file__).resolve().parent.parent.parent


def _lint(source: str):
    return lint_source(textwrap.dedent(source))


def _codes(source: str):
    return [finding.code for finding in _lint(source)]


# ---------------------------------------------------------------------------
# FM001 — sync-far-op-in-loop
# ---------------------------------------------------------------------------


class TestFM001:
    def test_flags_discarded_sync_op_in_for_loop(self):
        findings = _lint(
            """
            def zero(client, addrs):
                for addr in addrs:
                    client.write_u64(addr, 0)
            """
        )
        assert [f.code for f in findings] == ["FM001"]
        assert "write_u64" in findings[0].message

    def test_flags_inside_an_async_def(self):
        findings = _lint(
            """
            async def zero(client, addrs):
                for addr in addrs:
                    client.write_u64(addr, 0)
            """
        )
        assert [f.code for f in findings] == ["FM001"]

    def test_batch_context_is_clean(self):
        assert (
            _codes(
                """
                def zero(client, addrs):
                    with client.batch():
                        for addr in addrs:
                            client.write_u64(addr, 0)
                """
            )
            == []
        )

    def test_loop_exit_after_op_is_clean(self):
        # Find-then-act-once: the op runs at most once per call.
        assert (
            _codes(
                """
                def claim(client, slots):
                    for slot in slots:
                        client.write_u64(slot, 1)
                        return slot
                """
            )
            == []
        )

    def test_non_client_receiver_is_clean(self):
        assert (
            _codes(
                """
                def dump(fh, rows):
                    for row in rows:
                        fh.write(row)
                """
            )
            == []
        )

    def test_flags_write_phys_like_any_other_table_row(self):
        # Regression: write_phys was in none of the hand-kept op sets, so
        # this loop passed while the same loop over client.write was
        # flagged. The set is now derived from repro.fabric.ops.
        findings = _lint(
            """
            def stage(client, node, chunks):
                for offset, chunk in chunks:
                    client.write_phys(node, offset, chunk)
            """
        )
        assert [f.code for f in findings] == ["FM001"]
        assert "write_phys" in findings[0].message


# ---------------------------------------------------------------------------
# FM002 — leaked-far-future
# ---------------------------------------------------------------------------


class TestFM002:
    def test_flags_discarded_unsignaled_submit(self):
        assert (
            _codes(
                """
                def fire(client, addr):
                    client.submit("write_u64", addr, 1, signaled=False)
                """
            )
            == ["FM002"]
        )

    def test_flags_assigned_but_never_used_future(self):
        findings = _lint(
            """
            def fire(client, addr):
                fut = client.submit("write_u64", addr, 1)
            """
        )
        assert [f.code for f in findings] == ["FM002"]
        assert "'fut'" in findings[0].message

    def test_result_ed_future_is_clean(self):
        assert (
            _codes(
                """
                def fire(client, addr):
                    fut = client.submit("write_u64", addr, 1)
                    return fut.result()
                """
            )
            == []
        )

    def test_a_discarded_phase_leaks_no_future(self):
        """``phase`` returns outcomes, not futures, and is a window of its
        own: neither discarding it nor issuing it in a loop is flagged."""
        assert (
            _codes(
                """
                def release(client, rounds):
                    for writes in rounds:
                        client.phase("write_u64", writes)
                """
            )
            == []
        )

    def test_discarded_signaled_submit_with_cq_drain_is_clean(self):
        assert (
            _codes(
                """
                def fire(client, addr):
                    client.submit("write_u64", addr, 1)
                    while client.cq.poll() is not None:
                        pass
                """
            )
            == []
        )


# ---------------------------------------------------------------------------
# FM003 — bypass-client-metering
# ---------------------------------------------------------------------------


class TestFM003:
    def test_flags_raw_fabric_data_op(self):
        findings = _lint(
            """
            def poke(fabric, addr):
                fabric.write_word(addr, 7)
            """
        )
        assert [f.code for f in findings] == ["FM003"]
        assert "metered Client" in findings[0].message

    def test_flags_fabric_attribute_receiver(self):
        assert (
            _codes(
                """
                def poke(self, addr):
                    self.fabric.read(addr, 8)
                """
            )
            == ["FM003"]
        )

    def test_flags_raw_fabric_write_phys(self):
        # Regression: the physically-addressed write bypasses metering
        # like every other data-plane method, but the hand-kept set
        # missed it.
        findings = _lint(
            """
            def stage(fabric, node, offset, chunk):
                fabric.write_phys(node, offset, chunk)
            """
        )
        assert [f.code for f in findings] == ["FM003"]
        assert "write_phys" in findings[0].message

    def test_client_op_is_clean(self):
        assert _codes("client.write_u64(0, 7)\n") == []


# ---------------------------------------------------------------------------
# FM004 — swallowed-far-timeout
# ---------------------------------------------------------------------------


class TestFM004:
    def test_flags_empty_timeout_handler(self):
        assert (
            _codes(
                """
                def probe(client, addr):
                    try:
                        return client.read_u64(addr)
                    except FarTimeoutError:
                        pass
                """
            )
            == ["FM004"]
        )

    def test_flags_timeout_in_exception_tuple(self):
        assert (
            _codes(
                """
                def probe(client, addr):
                    try:
                        return client.read_u64(addr)
                    except (OSError, FarTimeoutError):
                        pass
                """
            )
            == ["FM004"]
        )

    def test_handler_that_records_is_clean(self):
        assert (
            _codes(
                """
                def probe(client, addr, stats):
                    try:
                        return client.read_u64(addr)
                    except FarTimeoutError:
                        stats.timeouts += 1
                        return None
                """
            )
            == []
        )


# ---------------------------------------------------------------------------
# FM005 — nondeterministic-source
# ---------------------------------------------------------------------------


class TestFM005:
    def test_flags_time_import_and_global_rng_and_wall_clock(self):
        assert (
            _codes(
                """
                import time

                def jitter():
                    return random.random() + time.time()

                def stamp():
                    return datetime.now()
                """
            )
            == ["FM005", "FM005", "FM005"]
        )

    def test_seeded_rng_constructors_are_clean(self):
        assert (
            _codes(
                """
                def rngs(seed):
                    return random.Random(seed), np.random.default_rng(seed)
                """
            )
            == []
        )


# ---------------------------------------------------------------------------
# FM006 — unverified-replicated-read
# ---------------------------------------------------------------------------


class TestFM006:
    def test_flags_raw_read_of_replica_address(self):
        findings = _lint(
            """
            def peek(client, replica):
                return client.read(replica + 64, 48)
            """
        )
        assert [f.code for f in findings] == ["FM006"]
        assert "read_verified" in findings[0].message

    def test_flags_replica_attribute_and_word_read(self):
        assert (
            _codes(
                """
                def peek(client, region):
                    return client.read_u64(region.replicas[0])
                """
            )
            == ["FM006"]
        )

    def test_verified_read_is_clean(self):
        assert (
            _codes(
                """
                def peek(client, replica):
                    return client.read_verified(replica + 64, 48)
                """
            )
            == []
        )

    def test_non_replica_address_is_clean(self):
        assert (
            _codes(
                """
                def peek(client, base):
                    return client.read(base + 64, 48)
                """
            )
            == []
        )

    def test_non_client_receiver_is_clean(self):
        # A near-memory cache of replica frames is not a far read.
        assert (
            _codes(
                """
                def peek(cache, replica):
                    return cache.read(replica, 48)
                """
            )
            == []
        )

    def test_suppression_escape(self):
        assert (
            _codes(
                """
                def scrub(client, replica):
                    # fmlint: disable=FM006 (raw bytes wanted: CRC audit)
                    return client.read(replica, 48)
                """
            )
            == []
        )


# ---------------------------------------------------------------------------
# FM007 — physical-placement-leak
# ---------------------------------------------------------------------------


class TestFM007:
    def test_flags_node_of_and_locate(self):
        findings = _lint(
            """
            def where(cluster, address):
                node = cluster.fabric.node_of(address)
                spot = cluster.fabric.locate(address)
                return node, spot
            """
        )
        assert [f.code for f in findings] == ["FM007", "FM007"]
        assert "node_of" in findings[0].message
        assert "locate" in findings[1].message

    def test_flags_fabric_alias_receiver(self):
        assert (
            _codes(
                """
                def home(allocator, address):
                    fabric = allocator.fabric
                    return fabric.node_of(address)
                """
            )
            == ["FM007"]
        )

    def test_flags_hand_built_location(self):
        findings = _lint(
            """
            def stash(node, offset):
                return Location(node=node, offset=offset)
            """
        )
        assert [f.code for f in findings] == ["FM007"]
        assert "Location" in findings[0].message

    def test_virtual_address_use_is_clean(self):
        assert (
            _codes(
                """
                def read_all(client, address, length):
                    return client.read(address, length)
                """
            )
            == []
        )

    def test_non_fabric_receiver_is_clean(self):
        assert (
            _codes(
                """
                def lookup(table, address):
                    return table.node_of(address)
                """
            )
            == []
        )

    def test_suppression_escape(self):
        assert (
            _codes(
                """
                def pick_victim(cluster, address):
                    # fmlint: disable=FM007 — choosing a node to fail in a test
                    return cluster.fabric.node_of(address)
                """
            )
            == []
        )

    def test_translation_and_movement_layers_are_exempt(self):
        assert "FM007" in _exempt_codes("src/repro/fabric/extent.py")
        assert _exempt_codes("src/repro/recovery/repair.py") == {"FM007"}
        assert _exempt_codes("src/repro/migration/coordinator.py") == {"FM007"}
        # Deliberately not: each allocator placement query keeps its own
        # written reason; only provision()'s raw write is the package's.
        assert _exempt_codes("src/repro/alloc/allocator.py") == {"FM003"}


# ---------------------------------------------------------------------------
# FM008 — missing-far-budget: retired. fmcost's interprocedural
# ``missing_budget`` verdict is the same predicate, so each shape the rule
# judged is asserted through fmcost here, under the test names it had.
# ---------------------------------------------------------------------------


def _verdicts(tmp_path, source: str, lint=()) -> dict:
    """fmcost's verdict per certified op of a fixture, on which fmlint
    reports exactly the ``lint`` codes (by default it is silent)."""
    source = textwrap.dedent(source)
    assert [f.code for f in lint_source(source)] == list(lint)
    module = tmp_path / "shape.py"
    module.write_text(source)
    cert = build_certificate(analyze_paths([str(module)]))
    return {op: r["verdict"] for ops in cert.values() for op, r in ops.items()}


class TestFM008:
    def test_flags_public_far_op_without_budget(self, tmp_path):
        assert _verdicts(
            tmp_path,
            """
            class FarCounter:
                def bump(self, client):
                    return client.faa(self.addr, 1)
            """,
        ) == {"bump": "missing_budget"}

    def test_flags_one_level_helper_transitivity(self, tmp_path):
        assert _verdicts(
            tmp_path,
            """
            class FarQueue:
                def _push(self, client, value):
                    client.saai(self.tail, 8, value)

                def push(self, client, value):
                    self._push(client, value)
            """,
        ) == {"push": "missing_budget"}

    def test_budgeted_method_is_clean(self, tmp_path):
        assert _verdicts(
            tmp_path,
            """
            class FarCounter:
                @far_budget(1, ceiling=1)
                def bump(self, client):
                    return client.faa(self.addr, 1)
            """,
        ) == {"bump": "ok"}

    def test_private_and_unregistered_and_near_are_clean(self, tmp_path):
        assert (
            _verdicts(
                tmp_path,
                """
                class FarCounter:
                    def _bump(self, client):
                        return client.faa(self.addr, 1)

                    def label(self):
                        return self.name

                class Ledger:
                    def bump(self, client):
                        return client.faa(self.addr, 1)
                """,
            )
            == {}
        )

    def test_classmethod_constructor_is_clean(self, tmp_path):
        assert (
            _verdicts(
                tmp_path,
                """
                class ReplicatedRegion:
                    @classmethod
                    def create(cls, client, allocator):
                        client.write(allocator.alloc(64), b"0" * 64)
                        return cls()
                """,
            )
            == {}
        )

    def test_suppression_escape(self, tmp_path):
        # The comment escape went with the rule: a leftover one is itself
        # reported, and the only way past fmcost is a declaration.
        assert _verdicts(
            tmp_path,
            """
            class FarQueue:
                # fmlint: disable=FM008 (observe only: debug probe)
                def depth_probe(self, client):
                    return client.read_u64(self.head)
            """,
            lint=["FM009"],
        ) == {"depth_probe": "missing_budget"}


# ---------------------------------------------------------------------------
# FM009 — unused-suppression
# ---------------------------------------------------------------------------


class TestFM009:
    def test_flags_suppression_that_no_longer_fires(self):
        findings = _lint(
            """
            def tally(rows):
                total = 0
                for row in rows:
                    total += row  # fmlint: disable=FM001
                return total
            """
        )
        assert [f.code for f in findings] == ["FM009"]
        assert "FM001" in findings[0].message

    def test_used_suppression_is_not_flagged(self):
        assert (
            _codes(
                """
                def zero(client, addrs):
                    for addr in addrs:
                        client.write_u64(addr, 0)  # fmlint: disable=FM001 (bandwidth-bound)
                """
            )
            == []
        )

    def test_partially_used_comment_flags_only_dead_code(self):
        findings = _lint(
            """
            def zero(client, addrs):
                for addr in addrs:
                    client.write_u64(addr, 0)  # fmlint: disable=FM001,FM004
            """
        )
        assert [f.code for f in findings] == ["FM009"]
        assert "FM004" in findings[0].message
        assert "FM001" not in findings[0].message

    def test_unused_file_wide_suppression_is_flagged(self):
        findings = lint_source("# fmlint: disable-file=FM002\nx = 1\n")
        assert [f.code for f in findings] == ["FM009"]

    def test_fm009_is_itself_suppressible(self):
        assert (
            _codes(
                """
                def tally(rows):
                    total = 0
                    for row in rows:
                        # fmlint: disable=FM001,FM009 (kept for a pending revert)
                        total += row
                    return total
                """
            )
            == []
        )

    def test_suppression_examples_in_docstrings_are_ignored(self):
        assert (
            _codes(
                '''
                def helper():
                    """Usage::

                        client.write(a, d)  # fmlint: disable=FM001
                    """
                    return None
                '''
            )
            == []
        )


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    BAD_LOOP = """
    def zero(client, addrs):
        for addr in addrs:
            client.write_u64(addr, 0){trailer}
    """

    def test_trailing_comment_suppresses_its_line(self):
        source = self.BAD_LOOP.format(
            trailer="  # fmlint: disable=FM001 (measured: bandwidth-bound)"
        )
        assert _codes(source) == []

    def test_standalone_comment_covers_next_line(self):
        assert (
            _codes(
                """
                def zero(client, addrs):
                    for addr in addrs:
                        # fmlint: disable=FM001 (crash-ordering requires it)
                        client.write_u64(addr, 0)
                """
            )
            == []
        )

    def test_wrong_code_does_not_suppress(self):
        # The mismatched code leaves FM001 live and is itself reported
        # as an unused suppression (FM009).
        source = self.BAD_LOOP.format(trailer="  # fmlint: disable=FM003")
        assert sorted(_codes(source)) == ["FM001", "FM009"]

    def test_file_wide_suppression(self):
        source = "# fmlint: disable-file=FM001\n" + textwrap.dedent(
            self.BAD_LOOP.format(trailer="")
        )
        assert lint_source(source) == []


# ---------------------------------------------------------------------------
# FM010 — raw-txn-version-atomic
# ---------------------------------------------------------------------------


class TestFM010:
    def test_flags_raw_cas_on_version_word(self):
        findings = _lint(
            """
            def sneak(client, space, slot):
                client.cas(space.version_addr(slot), 0, 99)
            """
        )
        assert [f.code for f in findings] == ["FM010"]
        assert "TxnSpace" in findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "cas(version_word, 0, 1)",
            "faa(version_word, 2)",
            "swap(version_word, 9)",
            "faai(version_word, 8, 8)",
            "saai(version_word, 8, b'x')",
            "fsaai(version_word, 8, b'x')",
        ],
    )
    def test_flags_every_atomic_that_writes_its_own_word(self, call):
        assert _codes(
            f"""
            def bump(client, version_word):
                client.{call}
            """
        ) == ["FM010"]

    def test_flags_submitted_atomic(self):
        assert _codes(
            """
            def sneak(client, space, slot):
                fut = client.submit("cas", space.version_addr(slot), 0, 99)
                fut.result()
            """
        ) == ["FM010"]

    def test_private_versioning_is_clean(self):
        # Structures with version words of their own (RefreshableVector's
        # _version_address) must not trip the rule: exact-name match only.
        assert (
            _codes(
                """
                def bump(self, client, slot):
                    client.faa(self._version_address(slot), 1)
                """
            )
            == []
        )

    def test_non_client_receiver_is_clean(self):
        assert (
            _codes(
                """
                def local(table, version_word):
                    table.cas(version_word, 0, 1)
                """
            )
            == []
        )

    def test_suppression_escape(self):
        assert (
            _codes(
                """
                def repair_tool(client, space, slot):
                    # fmlint: disable=FM010 (offline fsck, no live clients)
                    client.cas(space.version_addr(slot), 3, 2)
                """
            )
            == []
        )

    def test_txn_and_fabric_layers_are_exempt(self):
        assert _exempt_codes("src/repro/txn/txn.py") == {"FM010"}
        assert "FM010" in _exempt_codes("src/repro/fabric/client.py")
        assert "FM010" not in _exempt_codes("src/repro/core/vector.py")


# ---------------------------------------------------------------------------
# The layering table — FM003 / FM006 / FM007 / FM010 and their exemptions
# ---------------------------------------------------------------------------


class TestLayering:
    #: One violating call per row, keyed the way the row spells its callee.
    VIOLATIONS = {
        ("FM003", "fabric"): "fabric.write_word(addr, 7)",
        ("FM006", "client"): "client.read(replica + 64, 48)",
        ("FM007", "fabric"): "fabric.node_of(addr)",
        ("FM007", "bare"): "Location(node=0, offset=addr)",
        ("FM010", "client"): "client.cas(space.version_addr(slot), 0, 99)",
    }
    PACKAGES = sorted({"core", "apps"}.union(*(row.legal for row in LAYERING)))

    def test_every_row_has_a_violation_fixture(self):
        assert set(self.VIOLATIONS) == {(row.code, row.receiver) for row in LAYERING}

    @pytest.mark.parametrize(
        "row", LAYERING, ids=[f"{row.code}-{row.receiver}" for row in LAYERING]
    )
    def test_row_is_silent_in_its_legal_packages_only(self, row, tmp_path):
        call = self.VIOLATIONS[row.code, row.receiver]
        for package in self.PACKAGES:
            path = tmp_path / "src" / "repro" / package / "fixture.py"
            path.parent.mkdir(parents=True)
            path.write_text(f"def f(fabric, client, space, replica, addr, slot):\n    {call}\n")
            expected = [] if package in row.legal else [row.code]
            assert [f.code for f in lint_file(str(path))] == expected, package

    @pytest.mark.parametrize(
        "path, exempt",
        [
            ("src/repro/fabric/client.py", {"FM003", "FM007", "FM010"}),
            ("src/repro/txn/txn.py", {"FM010"}),
            ("src/repro/cluster.py", set()),
            # Regression: "repro/fabric/" in path matched these two.
            ("src/myrepro/fabric/x.py", set()),
            ("tests/fixtures/notrepro/txn/y.py", set()),
        ],
    )
    def test_package_is_a_path_component_not_a_substring(self, path, exempt):
        assert _exempt_codes(path) == exempt

    def test_design_table_matches_the_rows(self):
        """DESIGN.md section 9 "Layering table", row for row."""
        expected = [
            f"| {row.code} | {row.receiver} | "
            f"{', '.join(f'`{call}`' for call in sorted(row.calls))} | "
            f"{', '.join(f'`repro/{package}/`' for package in row.legal)} |"
            for row in LAYERING
        ]
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        table = design.split("**Layering table.**", 1)[1].split("\n\n", 2)[1]
        assert table.splitlines()[2:] == expected


# ---------------------------------------------------------------------------
# Repo gate + rule table
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_src_and_examples_lint_clean(self):
        findings = lint_paths([str(REPO / "src"), str(REPO / "examples")])
        rendered = "\n".join(f.format() for f in findings)
        assert findings == [], f"fmlint findings:\n{rendered}"

    def test_rule_table_lists_every_code(self):
        table = render_rules()
        assert list(RULES) == sorted(RULES) and len(RULES) == 9
        for code, rule in RULES.items():
            assert code in table and rule.name in table
