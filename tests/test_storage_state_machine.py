"""A model-based test of the durable layer: store vs. in-memory reference.

One ``hypothesis`` state machine drives an ``open_store`` catalog and a bare
in-memory catalog of the same shape through the same random mutation stream,
interleaved with the store-only events durability exists for — snapshots,
trie warm-ups (so snapshots write segments and reopens adopt them), clean
reopens, crash-reopens (no ``close()``), and crashes that leave a torn
half-record at the WAL tail.  After every step the store must be
*equivalent* to the reference — ``tests/test_storage_recovery.py``'s
``assert_equivalent`` (rows, per-shard fragments, every engine's results and
work counters), plus shard attributes, the partitioner and the
number of pending WAL records (a rejected mutation logs nothing).

The machine runs once per base catalog kind.
"""

import os
import shutil
import tempfile
import zlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from test_storage_recovery import assert_equivalent

from repro.relational import Database, Relation, Schema, ShardedDatabase
from repro.storage import open_store

SHARDED = {"num_shards": 2}
#: base kind -> (reference factory, the matching ``open_store`` keywords)
BASES = {
    "database": (lambda: Database("sm"), {}),
    "sharded-hash": (lambda: ShardedDatabase("sm", **SHARDED), SHARDED),
}

SCHEMAS = {"E": Schema(("src", "dst")), "F": Schema(("a", "b")), "G": Schema(("a", "b"))}
NAMES = st.sampled_from(sorted(SCHEMAS))
VALUES = st.integers(min_value=0, max_value=7)
ROWS = st.lists(st.tuples(VALUES, VALUES), max_size=12)


class StorageMachine(RuleBasedStateMachine):
    base = "database"

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-sm-")
        factory, self.open_kwargs = BASES[self.base]
        self.reference = factory()
        self.store = open_store(self.directory, name="sm", **self.open_kwargs)
        self.abandoned = []  # "crashed" handles, closed at teardown
        self.pending = 0  # WAL records a correct layer holds right now

    def teardown(self):
        for handle in (*self.abandoned, self.store):
            handle.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers ---------------------------------------------------------- #
    def both(self, mutate):
        """Apply ``mutate`` to reference and store; they must agree on the
        outcome — same return value or the same exception type."""
        outcomes = []
        for catalog in (self.reference, self.store):
            try:
                outcomes.append(("ok", mutate(catalog)))
            except (KeyError, ValueError) as error:
                outcomes.append(("raised", type(error)))
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "ok":
            self.pending += 1

    def reopen(self):
        self.store = open_store(self.directory)
        assert self.store.name == "sm"

    # -- mutations (mirrored on the reference) ---------------------------- #
    @initialize(rows=ROWS)
    def define_edges(self, rows):
        self.both(lambda c: c.add_relation(Relation("E", SCHEMAS["E"], rows)))

    @rule(name=NAMES, rows=ROWS)
    def add(self, name, rows):
        self.both(lambda c: c.add_relation(Relation(name, SCHEMAS[name], rows)))

    @rule(name=NAMES, rows=ROWS)
    def replace(self, name, rows):
        self.both(lambda c: c.replace_relation(Relation(name, SCHEMAS[name], rows)))

    @rule(name=NAMES, rows=ROWS)
    def insert(self, name, rows):
        self.both(lambda c: c.insert_into(name, rows))

    @rule(name=NAMES, width=st.sampled_from([1, 3]))
    def insert_with_the_wrong_arity(self, name, width):
        self.both(lambda c: c.insert_into(name, [(1,) * width]))

    # -- store-only events ------------------------------------------------- #
    @rule()
    def snapshot(self):
        summary = self.store.snapshot()
        assert summary["relations"] == len(self.reference.relation_names())
        self.pending = 0

    @rule(name=NAMES, reverse=st.booleans(), shard=st.sampled_from([None, 0, 1]))
    def warm_a_trie(self, name, reverse, shard):
        holder = self.store
        if shard is not None and self.base != "database":
            holder = self.store.shard_databases[shard]
        if name in holder:
            order = SCHEMAS[name].attributes
            holder.trie(name, order[::-1] if reverse else order)

    @rule()
    def reopen_after_a_clean_close(self):
        self.store.close()
        self.reopen()

    @rule()
    def reopen_after_a_crash(self):
        self.abandoned.append(self.store)  # never closed before the reopen
        self.reopen()

    @rule(data=st.data())
    def reopen_after_a_crash_mid_append(self, data):
        """The process died inside ``MutationLog.append``: some prefix of
        the record's line (possibly all but its newline) reached the disk.
        The mutation was never applied, so the reference does not see it."""
        self.abandoned.append(self.store)
        payload = '{"kind":"insert","relation":"E","rows":[[6,6]],"seq":%d}' % self.pending
        line = f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n".encode("utf-8")
        cut = data.draw(st.integers(min_value=1, max_value=len(line) - 1))
        with open(os.path.join(self.directory, "mutations.wal"), "ab") as handle:
            handle.write(line[:cut])
        self.reopen()

    # -- the oracle --------------------------------------------------------- #
    @invariant()
    def store_is_equivalent_to_the_reference(self):
        assert_equivalent(self.store, self.reference)
        assert self.store.info()["wal_records"] == self.pending
        if self.base == "database":
            return
        for name in self.reference.relation_names():
            assert (
                self.store.partitioner_for(name).describe()
                == self.reference.partitioner_for(name).describe()
            ), f"partitioner of {name!r} was lost"
            assert self.store.shard_attribute(name) == self.reference.shard_attribute(name)


def machine_for(base_kind):
    machine = type(f"StorageMachine[{base_kind}]", (StorageMachine,), {"base": base_kind})
    machine.TestCase.settings = settings(
        max_examples=12, stateful_step_count=20, deadline=None
    )
    return machine.TestCase


TestDatabaseStore = machine_for("database")
TestShardedHashStore = machine_for("sharded-hash")
