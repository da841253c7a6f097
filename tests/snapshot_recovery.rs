//! Durability and recovery tests for the `pnsymd` snapshot layer.
//!
//! Pins the full crash-safety story at the library level:
//!
//! * warm snapshots round-trip bit-identically (random nets × strategies,
//!   re-exported reached-set slices equal to the originals), and the
//!   slices they persist depend neither on the context nor on the strategy
//!   that computed the reached set;
//! * torn, truncated and bit-flipped snapshot files are always rejected
//!   with a typed reason — never a panic — and deleted, so the next query
//!   degrades to a cold rebuild; so is a snapshot naming a retired
//!   strategy, and one written in the older version-1 layout;
//! * a fixpoint checkpointed at pass boundaries resumes after a simulated
//!   crash and converges to the *same* fixpoint, bit-identical to a cold
//!   run;
//! * the scheduler serves an evicted-then-spilled family from disk with a
//!   `restored` pool outcome and verdicts identical to the cold pass, and
//!   answers a retired strategy name with a typed `request` error on a
//!   connection that stays open;
//! * an overloaded daemon answers surplus portfolio queries with a typed
//!   `overloaded` error carrying a retry-after hint while ping keeps
//!   working;
//! * the client surfaces stalled listeners as timeouts, refused
//!   connections as typed connect errors, and rides out a dropped
//!   connection by reconnecting and resending the same idempotent request.

use pnsym::bdd::{Ref, SerializedBdd};
use pnsym::net::nets::{self, property_suite};
use pnsym::net::PetriNet;
use pnsym::server::{
    build_context, canonical_net_hash, serve, snapshot_checksum, Client, ClientConfig, ClientError,
    ErrorCode, NetResolver, PoolOutcome, Request, Response, ServerConfig, ServerHandle,
    SnapshotRejection, SnapshotStore, Verdict, WarmContext,
};
use pnsym::{FixpointStrategy, SymbolicContext, TraversalOptions};
use proptest::prelude::*;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A fresh scratch directory under the system tempdir, unique per test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnsym-snaprec-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn export(ctx: &SymbolicContext, root: Ref) -> SerializedBdd {
    ctx.manager().export_subgraph(&[root])
}

fn test_net(pick: usize) -> (&'static str, PetriNet) {
    match pick % 4 {
        0 => ("figure1", nets::figure1()),
        1 => ("phil-2", nets::philosophers(2)),
        2 => ("phil-3", nets::philosophers(3)),
        _ => ("muller-4", nets::muller(4)),
    }
}

fn test_strategy(pick: usize) -> &'static str {
    ["bfs", "bfs-full", "saturation"][pick % 3]
}

fn strategy(name: &str) -> FixpointStrategy {
    name.parse().expect("surviving strategy name")
}

/// The net's bundled suite as a `check` request.
fn suite_request(id: u64, spec: &str, net: &PetriNet) -> Request {
    let suite = property_suite(net);
    assert!(!suite.is_empty(), "{spec} ships a property suite");
    let props: Vec<(&str, &str)> = suite
        .iter()
        .map(|p| (p.name.as_str(), p.formula.as_str()))
        .collect();
    Request::check_text(id, spec, &props)
}

fn verdicts(responses: &[Response]) -> Vec<&Verdict> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Verdict(v) => Some(v),
            _ => None,
        })
        .collect()
}

fn boot(config: ServerConfig) -> ServerHandle {
    let resolver: NetResolver = Box::new(|spec| match spec {
        "figure1" => Some(nets::figure1()),
        "phil-3" => Some(nets::philosophers(3)),
        "phil-10" => Some(nets::philosophers(10)),
        _ => None,
    });
    serve("127.0.0.1:0", config, resolver).expect("ephemeral port")
}

// ---------------------------------------------------------------------------
// Snapshot format round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A warm snapshot restores into a fresh context with the same marking
    /// count, and re-exporting the restored reached set reproduces the
    /// original node slice exactly (complement edges included).
    #[test]
    fn warm_snapshots_round_trip_bit_identically(net_pick in 0usize..4, strat_pick in 0usize..3) {
        let (spec, net) = test_net(net_pick);
        let strategy = strategy(test_strategy(strat_pick));
        let key = canonical_net_hash(&net);
        let options = TraversalOptions::with_strategy(strategy);

        let mut entry = WarmContext::new(key, spec, build_context(&net));
        let run = entry.context_mut().reachable_markings_with(options);
        prop_assert!(run.truncated.is_none());
        entry.store_reached(strategy, run);
        let original = export(entry.context(), run.reached);

        let dir = scratch_dir(&format!("roundtrip-{net_pick}-{strat_pick}"));
        let mut store = SnapshotStore::open(&dir).expect("open store");
        prop_assert!(store.save_warm(&entry).expect("save warm"));

        let mut fresh = build_context(&net);
        let restored = store
            .restore_warm(key, &mut fresh)
            .expect("snapshot file exists")
            .expect("snapshot decodes");
        prop_assert_eq!(restored.len(), 1);
        let (restored_strategy, restored_run) = restored[0];
        prop_assert_eq!(restored_strategy, strategy);
        prop_assert_eq!(restored_run.num_markings, run.num_markings);
        prop_assert_eq!(restored_run.iterations, run.iterations);
        let reexported = export(&fresh, restored_run.reached);
        prop_assert_eq!(original, reexported);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Any truncation or bit flip of a snapshot file yields a typed
    /// rejection — never a panic — and the poisoned file is deleted so the
    /// family rebuilds cold.
    #[test]
    fn corrupted_snapshots_always_reject_typed(cut in 0usize..10_000, flip in 0usize..10_000) {
        let net = nets::figure1();
        let key = canonical_net_hash(&net);
        let strategy = strategy("bfs");
        let mut entry = WarmContext::new(key, "figure1", build_context(&net));
        let run = entry
            .context_mut()
            .reachable_markings_with(TraversalOptions::with_strategy(strategy));
        entry.store_reached(strategy, run);

        let dir = scratch_dir(&format!("corrupt-{cut}-{flip}"));
        let mut store = SnapshotStore::open(&dir).expect("open store");
        let path = dir.join(format!("warm-{key:016x}.pnsnap"));

        // Truncation at any length short of the full file.
        prop_assert!(store.save_warm(&entry).expect("save warm"));
        let clean = fs::read(&path).expect("read snapshot");
        let cut = cut % clean.len();
        fs::write(&path, &clean[..cut]).expect("truncate");
        let mut fresh = build_context(&net);
        let rejection = store
            .restore_warm(key, &mut fresh)
            .expect("file exists")
            .expect_err("truncated snapshot must be rejected");
        prop_assert!(!rejection.to_string().is_empty());
        prop_assert!(!path.exists(), "rejected snapshot is deleted");

        // A single flipped bit anywhere in the file.
        prop_assert!(store.save_warm(&entry).expect("save warm again"));
        let mut bytes = clean.clone();
        let flip = flip % bytes.len();
        bytes[flip] ^= 1 << (flip % 8);
        fs::write(&path, &bytes).expect("flip");
        let mut fresh = build_context(&net);
        let rejection = store
            .restore_warm(key, &mut fresh)
            .expect("file exists")
            .expect_err("bit-flipped snapshot must be rejected");
        prop_assert!(!rejection.to_string().is_empty());
        prop_assert!(!path.exists(), "rejected snapshot is deleted");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The slice a snapshot persists is a function of the reached set alone:
/// two fresh contexts of each bundled family under the same strategy
/// export identical slices, and so do the `bfs` and `saturation` reached
/// sets (order, levels, packed edges and complement bits included).
#[test]
fn reached_set_exports_are_byte_identical_across_contexts_and_strategies() {
    let families = [
        nets::figure1(),
        nets::philosophers(3),
        nets::muller(4),
        nets::slotted_ring(3),
        nets::dme(3, nets::DmeStyle::Spec),
        nets::jjreg(nets::JjregVariant::B),
    ];
    for net in &families {
        let export = |name: &str| {
            let mut ctx = build_context(net);
            let run = ctx.reachable_markings_with(TraversalOptions::with_strategy(strategy(name)));
            assert!(run.truncated.is_none(), "{}: {name}", net.name());
            export(&ctx, run.reached)
        };
        let bfs = export("bfs");
        assert_eq!(bfs, export("bfs"), "{}: two bfs contexts", net.name());
        let sat = export("saturation");
        assert_eq!(
            sat,
            export("saturation"),
            "{}: two saturation contexts",
            net.name()
        );
        assert_eq!(bfs, sat, "{}: bfs and saturation reached sets", net.name());
    }
}

/// A warm snapshot whose entry names the retired `chaining` strategy is a
/// typed rejection, not a panic: the file is deleted, and a daemon booted
/// over it rebuilds the family cold.
#[test]
fn warm_snapshot_naming_a_retired_strategy_is_rejected_and_rebuilt_cold() {
    let net = nets::figure1();
    let key = canonical_net_hash(&net);
    // `bfs-full` and `chaining` have the same length, so renaming the entry
    // in place keeps every length field valid; only the checksum changes.
    let strategy = strategy("bfs-full");
    let mut entry = WarmContext::new(key, "figure1", build_context(&net));
    let run = entry
        .context_mut()
        .reachable_markings_with(TraversalOptions::with_strategy(strategy));
    entry.store_reached(strategy, run);
    let dir = scratch_dir("retired-strategy");
    let mut store = SnapshotStore::open(&dir).expect("open store");
    assert!(store.save_warm(&entry).expect("save warm"));
    let path = dir.join(format!("warm-{key:016x}.pnsnap"));
    let mut bytes = fs::read(&path).expect("read snapshot");
    let at = bytes
        .windows(8)
        .position(|w| w == b"bfs-full")
        .expect("entry names its strategy");
    bytes[at..at + 8].copy_from_slice(b"chaining");
    let body = bytes.len() - 8;
    let sum = snapshot_checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bytes).expect("write renamed snapshot");

    let mut fresh = build_context(&net);
    let rejection = store
        .restore_warm(key, &mut fresh)
        .expect("file exists")
        .expect_err("a retired strategy must be rejected");
    assert!(
        matches!(&rejection, SnapshotRejection::Mismatch(what) if what.contains("`chaining`")),
        "{rejection}"
    );
    assert!(!path.exists(), "rejected snapshot is deleted");

    fs::write(&path, &bytes).expect("write renamed snapshot again");
    let handle = boot(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let responses = client
        .request(&suite_request(1, "figure1", &net))
        .expect("cold rebuild");
    let Some(Response::Done { pool, .. }) = responses.last() else {
        panic!("stream ends in done: {responses:?}");
    };
    assert_eq!(
        *pool,
        PoolOutcome::Miss,
        "the rejected snapshot is not served"
    );
    assert!(!verdicts(&responses).is_empty());
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A warm snapshot holds exactly one entry: a file in the older
/// multi-entry layout (one record per strategy) is a typed rejection, and
/// the file is deleted so the family rebuilds cold.
#[test]
fn multi_entry_warm_snapshot_is_rejected_typed() {
    let net = nets::figure1();
    let key = canonical_net_hash(&net);
    let strategy = strategy("bfs");
    let mut entry = WarmContext::new(key, "figure1", build_context(&net));
    let run = entry
        .context_mut()
        .reachable_markings_with(TraversalOptions::with_strategy(strategy));
    entry.store_reached(strategy, run);
    let dir = scratch_dir("multi-entry");
    let mut store = SnapshotStore::open(&dir).expect("open store");
    assert!(store.save_warm(&entry).expect("save warm"));
    let path = dir.join(format!("warm-{key:016x}.pnsnap"));
    let clean = fs::read(&path).expect("read snapshot");

    // Envelope: magic, version, kind, net hash, spec, entry count, then
    // each entry as (strategy, marking count, pass count).
    let count_at = 8 + 4 + 1 + 8 + 4 + "figure1".len();
    let entry_len = 4 + "bfs".len() + 8 + 8;
    let entry_at = count_at + 4;
    let mut bytes = clean[..count_at].to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&clean[entry_at..entry_at + entry_len]);
    bytes.extend_from_slice(&clean[entry_at..clean.len() - 8]);
    let sum = snapshot_checksum(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    fs::write(&path, &bytes).expect("write two-entry snapshot");

    let mut fresh = build_context(&net);
    let rejection = store
        .restore_warm(key, &mut fresh)
        .expect("file exists")
        .expect_err("a multi-entry snapshot must be rejected");
    assert!(
        matches!(rejection, SnapshotRejection::Envelope(what) if what.contains("exactly one entry")),
        "{rejection}"
    );
    assert!(!path.exists(), "rejected snapshot is deleted");
    assert!(fresh.memoized_reached().is_none());
    let _ = fs::remove_dir_all(&dir);
}

/// A warm snapshot in the version-1 layout, which wrapped the slice in a
/// second blob with its own magic, version, tag and checksum, is a typed
/// `Version(1)` rejection: the file is deleted, no reached set is
/// installed, and a daemon booted over it rebuilds the family cold.
#[test]
fn version_one_warm_snapshot_is_rejected_and_rebuilt_cold() {
    fn put(out: &mut Vec<u8>, words: &[u32]) {
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    fn put_str(out: &mut Vec<u8>, s: &str) {
        put(out, &[s.len() as u32]);
        out.extend_from_slice(s.as_bytes());
    }
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = snapshot_checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }
    let net = nets::figure1();
    let key = canonical_net_hash(&net);
    let mut ctx = build_context(&net);
    let run = ctx.reachable_markings_with(TraversalOptions::with_strategy(strategy("bfs")));
    let slice = export(&ctx, run.reached);

    // The inner blob: magic, version, tag, order, nodes, roots, checksum.
    let mut blob = b"PNSYBDD\0".to_vec();
    put(&mut blob, &[1]);
    blob.extend_from_slice(&key.to_le_bytes());
    let order: Vec<u32> = slice.order().iter().map(|v| v.0).collect();
    put(&mut blob, &[order.len() as u32]);
    put(&mut blob, &order);
    put(&mut blob, &[slice.nodes().len() as u32]);
    for &(level, low, high) in slice.nodes() {
        put(&mut blob, &[level, low, high]);
    }
    put(&mut blob, &[1, slice.roots()[0]]);
    let blob = sealed(blob);
    // The envelope: magic, version, kind, net hash, spec, one entry, then
    // the length-prefixed blob and the outer checksum.
    let mut file = b"PNSYMDS\0".to_vec();
    put(&mut file, &[1]);
    file.push(1);
    file.extend_from_slice(&key.to_le_bytes());
    put_str(&mut file, "figure1");
    put(&mut file, &[1]);
    put_str(&mut file, "bfs");
    file.extend_from_slice(&run.num_markings.to_bits().to_le_bytes());
    file.extend_from_slice(&(run.iterations as u64).to_le_bytes());
    put(&mut file, &[blob.len() as u32]);
    file.extend_from_slice(&blob);
    let file = sealed(file);

    let dir = scratch_dir("version-one");
    let mut store = SnapshotStore::open(&dir).expect("open store");
    let path = dir.join(format!("warm-{key:016x}.pnsnap"));
    fs::write(&path, &file).expect("write version-1 snapshot");
    let mut fresh = build_context(&net);
    let rejection = store
        .restore_warm(key, &mut fresh)
        .expect("file exists")
        .expect_err("a version-1 snapshot must be rejected");
    assert!(
        matches!(rejection, SnapshotRejection::Version(1)),
        "{rejection}"
    );
    assert!(!path.exists(), "rejected snapshot is deleted");
    assert!(fresh.memoized_reached().is_none());

    fs::write(&path, &file).expect("write version-1 snapshot again");
    let handle = boot(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let responses = client
        .request(&suite_request(1, "figure1", &net))
        .expect("cold rebuild");
    let Some(Response::Done { pool, .. }) = responses.last() else {
        panic!("stream ends in done: {responses:?}");
    };
    assert_eq!(*pool, PoolOutcome::Miss, "the old file is not served");
    assert!(!verdicts(&responses).is_empty());
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A warm snapshot over twice the context's variables, as the older
/// two-vocabulary contexts (interleaved current and next-state variables)
/// wrote it, is a typed `Mismatch` rejection: the file is deleted, no
/// reached set is installed, and a daemon booted over it rebuilds the
/// family cold. The byte layout is unchanged, so the version is not what
/// rejects it.
#[test]
fn two_vocabulary_warm_snapshot_is_rejected_and_rebuilt_cold() {
    let net = nets::figure1();
    let key = canonical_net_hash(&net);
    let strategy = strategy("bfs");
    let mut forged = build_context(&net);
    let n = forged.encoding().num_vars();
    for _ in 0..n {
        forged.manager_mut().add_var();
    }
    let mut entry = WarmContext::new(key, "figure1", forged);
    let run = entry
        .context_mut()
        .reachable_markings_with(TraversalOptions::with_strategy(strategy));
    entry.store_reached(strategy, run);
    let dir = scratch_dir("two-vocabulary");
    let mut store = SnapshotStore::open(&dir).expect("open store");
    assert!(store.save_warm(&entry).expect("save warm"));
    let path = dir.join(format!("warm-{key:016x}.pnsnap"));
    let bytes = fs::read(&path).expect("read snapshot");

    let mut fresh = build_context(&net);
    assert_eq!(fresh.manager().num_vars(), n);
    let rejection = store
        .restore_warm(key, &mut fresh)
        .expect("file exists")
        .expect_err("a snapshot over 2n variables must be rejected");
    let expected = format!("snapshot has {} variables, the live context {n}", 2 * n);
    assert!(
        matches!(&rejection, SnapshotRejection::Mismatch(what) if *what == expected),
        "{rejection}"
    );
    assert!(!path.exists(), "rejected snapshot is deleted");
    assert!(fresh.memoized_reached().is_none());

    fs::write(&path, &bytes).expect("write two-vocabulary snapshot again");
    let handle = boot(ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    let responses = client
        .request(&suite_request(1, "figure1", &net))
        .expect("cold rebuild");
    let Some(Response::Done { pool, .. }) = responses.last() else {
        panic!("stream ends in done: {responses:?}");
    };
    assert_eq!(*pool, PoolOutcome::Miss, "the old file is not served");
    assert!(!verdicts(&responses).is_empty());
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Each retired strategy spelling is a terminal `request` error naming the
/// surviving strategies, and the connection stays open for the next query.
#[test]
fn retired_strategy_names_are_rejected_over_the_wire() {
    let handle = boot(ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = nets::figure1();
    for (id, name) in (1..).zip(["chaining", "chaining-index", "parallel", "parallel-2"]) {
        let mut request = suite_request(id, "figure1", &net);
        let Request::Check(check) = &mut request else {
            unreachable!("suite requests are checks");
        };
        check.strategy = Some(name.to_string());
        let responses = client.request(&request).expect("typed error");
        let [Response::Error {
            code,
            message,
            terminal,
            ..
        }] = responses.as_slice()
        else {
            panic!("{name}: expected one error line, got {responses:?}");
        };
        assert_eq!(*code, ErrorCode::Request, "{name}");
        assert!(*terminal, "{name}");
        assert!(
            message.contains(name) && message.contains("bfs, bfs-full or saturation"),
            "{name}: {message}"
        );
        let pong = client
            .request(&Request::Ping { id: 100 + id })
            .expect("ping");
        assert!(
            matches!(pong.as_slice(), [Response::Pong { .. }]),
            "{pong:?}"
        );
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Checkpointed fixpoints resume after a crash
// ---------------------------------------------------------------------------

/// Kills a checkpointed traversal "mid-flight" (by simply abandoning its
/// context, as a `kill -9` would), reloads the last durable checkpoint
/// into a fresh context, resumes, and requires the resumed fixpoint to be
/// bit-identical to an uninterrupted cold run.
#[test]
fn checkpoint_resume_converges_to_the_cold_fixpoint() {
    let net = nets::philosophers(3);
    let spec = "phil-3";
    let key = canonical_net_hash(&net);
    let strategy = strategy("bfs");
    let options = TraversalOptions::with_strategy(strategy);
    let dir = scratch_dir("checkpoint-resume");
    let mut store = SnapshotStore::open(&dir).expect("open store");

    let mut cold = build_context(&net);
    let cold_run = cold.reachable_markings_with(options);
    let cold_slice = export(&cold, cold_run.reached);

    // The "crashing" run: checkpoint at every pass boundary, then drop the
    // context on the floor. Only the on-disk checkpoint survives.
    let mut passes_seen = 0usize;
    {
        let mut doomed = build_context(&net);
        let mut observer = |ctx: &SymbolicContext, reached: Ref, pass: usize| {
            store
                .save_checkpoint(key, spec, strategy, ctx, reached, pass)
                .expect("checkpoint write");
            passes_seen = pass;
        };
        let _ = doomed.reachable_markings_observed(options, None, Some(&mut observer));
    }
    assert!(passes_seen >= 1, "bfs on phil-3 runs multiple passes");

    let mut revived = build_context(&net);
    let (seed, base_passes) = store
        .load_checkpoint(key, &mut revived)
        .expect("checkpoint file exists")
        .expect("checkpoint decodes");
    assert_eq!(base_passes, passes_seen, "last pass boundary persisted");

    let mut resumed = revived.reachable_markings_observed(options, Some(seed), None);
    resumed.iterations += base_passes;
    revived.manager_mut().unprotect(seed);
    assert_eq!(resumed.num_markings, cold_run.num_markings);
    assert!(resumed.iterations >= cold_run.iterations);
    let resumed_slice = export(&revived, resumed.reached);
    assert_eq!(
        cold_slice, resumed_slice,
        "resumed fixpoint is bit-identical"
    );

    // Any strategy resumes from the checkpoint: saturation seeded with the
    // bfs checkpoint converges to the same fixpoint, byte for byte.
    let mut fresh = build_context(&net);
    let (seed, _) = store
        .load_checkpoint(key, &mut fresh)
        .expect("checkpoint file is still in place")
        .expect("checkpoint decodes");
    let saturation = TraversalOptions::with_strategy(FixpointStrategy::Saturation);
    let resumed = fresh.reachable_markings_observed(saturation, Some(seed), None);
    fresh.manager_mut().unprotect(seed);
    assert_eq!(resumed.num_markings, cold_run.num_markings);
    assert_eq!(
        cold_slice,
        export(&fresh, resumed.reached),
        "saturation resumed from a bfs checkpoint is bit-identical"
    );

    // A completed query clears its checkpoint.
    assert!(dir.join(format!("ckpt-{key:016x}.pnsnap")).exists());
    store.clear_checkpoint(key);
    assert!(!dir.join(format!("ckpt-{key:016x}.pnsnap")).exists());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Scheduler: spill on evict, restore on demand
// ---------------------------------------------------------------------------

/// With a pool of one, querying a second family evicts the first to disk;
/// re-querying the first serves it from its snapshot with a `restored`
/// outcome and verdicts identical to the cold pass.
#[test]
fn evicted_family_restores_from_disk_with_identical_verdicts() {
    let dir = scratch_dir("evict-restore");
    let config = ServerConfig {
        pool_capacity: 1,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let handle = boot(config);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let figure1 = nets::figure1();
    let phil = nets::philosophers(3);
    let cold = client
        .request(&suite_request(1, "figure1", &figure1))
        .expect("cold figure1");
    let Some(Response::Done { pool, .. }) = cold.last() else {
        panic!("stream ends in done");
    };
    assert_eq!(*pool, PoolOutcome::Miss);

    // Evict figure1 (pool capacity 1). Its warm state is already durable
    // from the post-query write-through; the evict itself must not drop
    // the work.
    let other = client
        .request(&suite_request(2, "phil-3", &phil))
        .expect("phil-3");
    assert!(matches!(other.last(), Some(Response::Done { .. })));

    let warm = client
        .request(&suite_request(3, "figure1", &figure1))
        .expect("restored figure1");
    let Some(Response::Done { pool, .. }) = warm.last() else {
        panic!("stream ends in done");
    };
    assert_eq!(
        *pool,
        PoolOutcome::Restored,
        "evicted family comes back from its snapshot"
    );
    let cold_verdicts = verdicts(&cold);
    let warm_verdicts = verdicts(&warm);
    assert_eq!(cold_verdicts.len(), warm_verdicts.len());
    for (c, w) in cold_verdicts.iter().zip(&warm_verdicts) {
        assert_eq!(c.holds, w.holds);
        assert_eq!(c.sat_markings, w.sat_markings);
        assert_eq!(c.reached_markings, w.reached_markings);
        assert_eq!(c.name, w.name);
    }

    let stats = client.request(&Request::Stats { id: 9 }).expect("stats");
    let Some(Response::Stats {
        spills, restores, ..
    }) = stats.last()
    else {
        panic!("stats response");
    };
    assert!(*spills >= 1, "completed queries are written through");
    assert_eq!(*restores, 1, "one on-demand restore");
    handle.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A restarted daemon (same snapshot directory, fresh process state)
/// rehydrates its pool at startup and serves the family warm.
#[test]
fn restarted_scheduler_rehydrates_from_snapshots() {
    let dir = scratch_dir("rehydrate");
    let config = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let figure1 = nets::figure1();

    let first = boot(config.clone());
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold = client
        .request(&suite_request(1, "figure1", &figure1))
        .expect("cold run");
    first.shutdown();

    // "Restart": a brand-new scheduler over the same directory.
    let second = boot(config);
    let mut client = Client::connect(second.addr()).expect("connect");
    let warm = client
        .request(&suite_request(2, "figure1", &figure1))
        .expect("warm run");
    let Some(Response::Done { pool, .. }) = warm.last() else {
        panic!("stream ends in done");
    };
    assert_eq!(
        *pool,
        PoolOutcome::Hit,
        "startup rehydration pre-warms the pool"
    );
    let stats = client.request(&Request::Stats { id: 9 }).expect("stats");
    let Some(Response::Stats { restores, .. }) = stats.last() else {
        panic!("stats response");
    };
    assert!(*restores >= 1, "rehydration counts as a restore");
    for (c, w) in verdicts(&cold).iter().zip(&verdicts(&warm)) {
        assert_eq!(c.holds, w.holds);
        assert_eq!(c.sat_markings, w.sat_markings);
        assert_eq!(c.reached_markings, w.reached_markings);
    }
    second.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Overload protection
// ---------------------------------------------------------------------------

/// With admission capacity 1, a second concurrent portfolio query is
/// answered immediately with a typed `overloaded` error carrying a
/// retry-after hint, while the first query completes normally and pings
/// keep working throughout.
///
/// No sleep decides who holds the slot. The fast query is resent until it
/// is shed, which happens as soon as the slow query (phil-10's cold
/// traversal and suite, about 0.1 s in a release build) is admitted; the
/// test fails only if the slow query completes before that. A fast query
/// in flight can shed the slow one too, so the slow client retries until
/// admitted.
#[test]
fn overloaded_daemon_sheds_load_with_typed_retry_hint() {
    let handle = boot(ServerConfig {
        max_inflight: 1,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let phil = nets::philosophers(10);
    let slow_request = suite_request(1, "phil-10", &phil);
    let slow_done = Arc::new(AtomicBool::new(false));
    let worker = {
        let slow_done = Arc::clone(&slow_done);
        std::thread::spawn(move || {
            let config = ClientConfig {
                retries: 50,
                ..ClientConfig::default()
            };
            let mut slow = Client::connect_with(addr, config).expect("connect slow");
            let responses = slow.request(&slow_request).expect("slow query completes");
            slow_done.store(true, Ordering::SeqCst);
            responses
        })
    };

    let figure1 = nets::figure1();
    let mut fast = Client::connect(addr).expect("connect fast");
    let hint = loop {
        let slow_finished = slow_done.load(Ordering::SeqCst);
        let responses = fast
            .request(&suite_request(2, "figure1", &figure1))
            .expect("rejection is a response, not an I/O error");
        match responses.last() {
            Some(Response::Error {
                code: ErrorCode::Overloaded,
                terminal: true,
                retry_after_ms: Some(hint),
                ..
            }) => break *hint,
            Some(Response::Done { .. }) => assert!(
                !slow_finished,
                "the slow query completed before a fast one was shed"
            ),
            other => panic!("expected a typed overload rejection, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!((25..=5_000).contains(&hint), "hint {hint} in band");

    // Health checks bypass admission: ping answers while overloaded.
    let pong = fast.request(&Request::Ping { id: 3 }).expect("ping");
    assert!(matches!(pong.last(), Some(Response::Pong { id: 3 })));

    let slow_responses = worker.join().expect("slow query thread");
    assert!(matches!(slow_responses.last(), Some(Response::Done { .. })));
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Client resilience
// ---------------------------------------------------------------------------

/// Regression: a listener that accepts but never answers must surface as
/// a typed timeout, not hang the client forever.
#[test]
fn client_times_out_on_a_stalled_listener() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Keep the listener alive but never accept/answer.
    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        },
    )
    .expect("connect succeeds (backlog)");
    let err = client
        .request(&Request::Ping { id: 1 })
        .expect_err("no answer ever comes");
    assert!(matches!(err, ClientError::Timeout), "got {err:?}");
    drop(listener);
}

/// A refused connection is a typed connect error, not a panic or a hang.
#[test]
fn client_reports_refused_connections_as_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    drop(listener); // nothing listens here any more
    match Client::connect(addr) {
        Err(ClientError::Connect(_)) => {}
        other => panic!("expected ClientError::Connect, got {other:?}"),
    }
}

/// A connection dropped mid-exchange is ridden out: the client backs off,
/// reconnects, and resends the same idempotent request.
#[test]
fn client_reconnects_and_resends_after_a_dropped_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        // First connection: read the request, then hang up without
        // answering — the client sees EOF.
        let (stream, _) = listener.accept().expect("first accept");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        drop(reader);
        // Second connection: answer properly.
        let (mut stream, _) = listener.accept().expect("second accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read resent request");
        let request = Request::parse(line.trim_end()).expect("decodes");
        let pong = Response::Pong { id: request.id() };
        stream
            .write_all((pong.to_line() + "\n").as_bytes())
            .expect("answer");
        line
    });

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let request = Request::Ping { id: 42 };
    let responses = client.request(&request).expect("retried to success");
    assert_eq!(responses, vec![Response::Pong { id: 42 }]);
    let resent = server.join().expect("server thread");
    assert_eq!(
        resent.trim_end(),
        request.to_line(),
        "the resent line is the same idempotent request"
    );
}

// ---------------------------------------------------------------------------
// Disk-fault matrix (fault-inject builds only)
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
mod disk_faults {
    use super::*;
    use pnsym::{DiskFaultSchedule, DiskFaultSite};

    fn warm_entry(net: &PetriNet, spec: &str) -> WarmContext {
        let key = canonical_net_hash(net);
        let strategy = super::strategy("bfs");
        let mut entry = WarmContext::new(key, spec, build_context(net));
        let run = entry
            .context_mut()
            .reachable_markings_with(TraversalOptions::with_strategy(strategy));
        entry.store_reached(strategy, run);
        entry
    }

    /// A torn write (prefix persisted, still renamed into place) is caught
    /// by the checksum on the next read and degrades to a cold rebuild.
    #[test]
    fn short_write_is_caught_by_checksum_on_read() {
        let net = nets::figure1();
        let key = canonical_net_hash(&net);
        let dir = scratch_dir("fault-shortwrite");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.arm_faults(DiskFaultSchedule::none().trip(DiskFaultSite::ShortWrite, 0));
        let entry = warm_entry(&net, "figure1");
        assert!(store
            .save_warm(&entry)
            .expect("torn write still 'succeeds'"));

        let mut fresh = build_context(&net);
        let rejection = store
            .restore_warm(key, &mut fresh)
            .expect("torn file exists")
            .expect_err("torn snapshot is rejected");
        assert!(!rejection.to_string().is_empty());
        assert!(!dir.join(format!("warm-{key:016x}.pnsnap")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed rename loses the snapshot but never publishes a torn file:
    /// the save reports the error, the directory holds neither the final
    /// file nor a stray temp file.
    #[test]
    fn failed_rename_leaves_no_file_behind() {
        let net = nets::figure1();
        let key = canonical_net_hash(&net);
        let dir = scratch_dir("fault-rename");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.arm_faults(DiskFaultSchedule::none().trip(DiskFaultSite::FailedRename, 0));
        let entry = warm_entry(&net, "figure1");
        assert!(store.save_warm(&entry).is_err(), "rename failure surfaces");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert!(leftovers.is_empty(), "no torn or temp files: {leftovers:?}");

        // The site disarmed after firing: the next save goes through and
        // restores cleanly.
        assert!(store.save_warm(&entry).expect("second save"));
        let mut fresh = build_context(&net);
        let restored = store
            .restore_warm(key, &mut fresh)
            .expect("file exists")
            .expect("decodes");
        assert_eq!(restored.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Media rot (a bit flipped on read) is rejected with a typed reason
    /// and the poisoned file deleted.
    #[test]
    fn corrupt_read_rejects_and_deletes() {
        let net = nets::figure1();
        let key = canonical_net_hash(&net);
        let dir = scratch_dir("fault-corruptread");
        let mut store = SnapshotStore::open(&dir).expect("open");
        let entry = warm_entry(&net, "figure1");
        assert!(store.save_warm(&entry).expect("clean save"));

        store.arm_faults(DiskFaultSchedule::none().trip(DiskFaultSite::CorruptRead, 0));
        let mut fresh = build_context(&net);
        let rejection = store
            .restore_warm(key, &mut fresh)
            .expect("file exists")
            .expect_err("rotten read is rejected");
        assert!(!rejection.to_string().is_empty());
        assert!(!dir.join(format!("warm-{key:016x}.pnsnap")).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The scheduler path: a daemon whose snapshot store is armed with
    /// disk faults keeps answering correctly — durability degrades, the
    /// service does not.
    #[test]
    fn daemon_survives_disk_faults_end_to_end() {
        for seed in 0..6u64 {
            let dir = scratch_dir(&format!("fault-daemon-{seed}"));
            let config = ServerConfig {
                pool_capacity: 1,
                snapshot_dir: Some(dir.clone()),
                disk_faults: Some(DiskFaultSchedule::from_seed(seed)),
                ..ServerConfig::default()
            };
            let handle = boot(config);
            let mut client = Client::connect(handle.addr()).expect("connect");
            let figure1 = nets::figure1();
            let phil = nets::philosophers(3);
            // Query A, evict it with B, re-query A: whatever the armed
            // fault hits, every stream must end in done with no panic.
            for (id, spec, net) in [
                (1, "figure1", &figure1),
                (2, "phil-3", &phil),
                (3, "figure1", &figure1),
            ] {
                let responses = client.request(&suite_request(id, spec, net)).expect(spec);
                assert!(
                    matches!(responses.last(), Some(Response::Done { .. })),
                    "seed {seed}: {spec} ends in done"
                );
            }
            handle.shutdown();
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
