-- Durable catalog snapshot schema.
--
-- One SQLite file per store holds the *snapshot* state of a catalog: which
-- relations exist, how each is placed (monolithic, or partitioned on its
-- first attribute), and every fragment's rows as one packed blob.  Mutations between
-- snapshots live in the sibling mutation log (wal.py), not here.

CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS relations (
    name            TEXT PRIMARY KEY,
    attributes      TEXT NOT NULL,   -- JSON list of attribute names
    -- 'single' (monolithic catalog) or 'partitioned' (sharded catalog:
    -- every relation is partitioned on its first attribute).
    placement       TEXT NOT NULL,
    shard_attribute TEXT,            -- the first attribute; partitioned only
    -- JSON {"kind", "num_shards", "boundaries"} capturing the *fitted*
    -- partitioner, so recovery restores routing exactly instead of
    -- refitting on post-mutation data.
    partitioner     TEXT
);

CREATE TABLE IF NOT EXISTS fragments (
    relation  TEXT    NOT NULL,
    -- -1 is the whole relation (monolithic / the sharded catalog's
    -- global copy); 0..N-1 are per-shard fragments.
    shard     INTEGER NOT NULL,
    -- 'q', the only encoding: rows flattened to little-endian signed
    -- 64-bit words (every stored value is one such word).
    encoding  TEXT    NOT NULL,
    arity     INTEGER NOT NULL,
    count     INTEGER NOT NULL,     -- number of rows in the fragment
    data      BLOB    NOT NULL,
    PRIMARY KEY (relation, shard)
);
